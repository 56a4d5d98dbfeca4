"""The claims table as a sweep applies it to one paper-cell report."""

from repro.backends import GPU, VECTORIZED
from repro.claims import claim_studies, completion_failure, evaluate
from repro.harness.runner import KernelReport

#: Counters that satisfy every single-kernel CPU claim but GWFA's at
#: once — handy as a baseline to perturb per test.
GOOD_TOPDOWN = {
    "retiring": 0.55, "frontend_bound": 0.05, "bad_speculation": 0.2,
    "core_bound": 0.55, "memory_bound": 0.1,
}
GOOD_MPKI = {"l1": 2.0, "l2": 1.0, "l3": 6.0}
GOOD_MIX = {"vector": 0.5, "memory": 0.15, "branch": 0.05, "scalar": 0.8,
            "register": 0.0}


def report(kernel, **kwargs):
    kwargs.setdefault("inputs_processed", 10)
    return KernelReport(kernel=kernel, **kwargs)


def cpu_report(kernel, **slots):
    return report(kernel, topdown={**GOOD_TOPDOWN, **slots}, ipc=1.5,
                  mpki=dict(GOOD_MPKI), instruction_mix=dict(GOOD_MIX))


def check(report):
    """Every failure a sweep attaches to a lone paper-cell *report*."""
    return evaluate([report])[0]


class TestCompletionGate:
    def test_error_violates(self):
        violations = check(report("ssw", error="Boom: x"))
        assert any("kernel failed" in v for v in violations)

    def test_no_inputs_violates(self):
        violations = check(report("ssw", inputs_processed=0))
        assert any("no inputs" in v for v in violations)

    def test_clean_report_passes(self):
        assert check(report("ssw")) == ()

    def test_every_kernel_gets_the_completion_gate(self):
        for kernel in ("ssw", "tc", "tsu", "no-such-kernel"):
            failure = completion_failure(report(kernel, inputs_processed=0))
            assert failure.startswith("completed: "), kernel


class TestTopdownGates:
    def test_missing_topdown_data_violates(self):
        violations = check(report("tc"))
        assert any("no top-down data" in v for v in violations)

    def test_tc_retiring(self):
        good = cpu_report("tc")
        assert check(good) == ()
        bad = cpu_report("tc", retiring=0.3)
        assert any("tc-retiring-dominant" in v for v in check(bad))

    def test_gbwt_not_memory_bound(self):
        good = cpu_report("gbwt")
        assert check(good) == ()
        bad = cpu_report("gbwt", memory_bound=0.4)
        assert any("gbwt-not-memory-bound" in v for v in check(bad))

    def test_gssw_core_and_memory(self):
        good = cpu_report("gssw")
        assert check(good) == ()
        bad = cpu_report("gssw", core_bound=0.1)
        assert any("gssw-core-bound" in v for v in check(bad))

    def test_gbv_bad_speculation(self):
        good = cpu_report("gbv")
        assert check(good) == ()
        bad = cpu_report("gbv", bad_speculation=0.05)
        assert any("gbv-bad-speculation" in v for v in check(bad))

    def test_pgsgd_memory_core(self):
        good = cpu_report("pgsgd")
        assert check(good) == ()
        bad = cpu_report("pgsgd", memory_bound=0.1, core_bound=0.2)
        assert any("pgsgd-memory-core-bound" in v for v in check(bad))


class TestTsuGate:
    GOOD_GPU = {
        "theoretical_occupancy": 1 / 3,
        "achieved_occupancy": 0.3,
        "warp_utilization": 0.6,
        "memory_bw_utilization": 0.4,
        "gpu_time_ms": 4.2,
    }

    def test_good_profile_passes(self):
        assert check(report("tsu", gpu=self.GOOD_GPU)) == ()

    def test_missing_counters_violate(self):
        violations = check(report("tsu"))
        assert any("no GPU counters" in v for v in violations)

    def test_occupancy_shape_enforced(self):
        wrong = {**self.GOOD_GPU, "theoretical_occupancy": 0.5}
        assert any("1/3" in v for v in check(report("tsu", gpu=wrong)))
        idle = {**self.GOOD_GPU, "achieved_occupancy": 0.0}
        assert check(report("tsu", gpu=idle)) != ()


class TestGateStudies:
    def test_cpu_kernels_need_topdown(self):
        for kernel in ("tc", "gbwt", "gssw", "gbv", "pgsgd",
                       "gwfa-lr", "gwfa-cr"):
            studies = claim_studies((), kernel, VECTORIZED,
                                    {(kernel, VECTORIZED)})
            assert studies[0] == "topdown", kernel
        # Figs. 7/8 add their studies where a single-kernel row reads them.
        assert claim_studies((), "gbwt", VECTORIZED,
                             {("gbwt", VECTORIZED)}) == ("topdown",)
        assert claim_studies(("timing",), "pgsgd", VECTORIZED,
                             {("pgsgd", VECTORIZED)}) \
            == ("timing", "topdown", "cache", "instmix")

    def test_tsu_needs_gpu(self):
        assert claim_studies((), "tsu", GPU, {("tsu", GPU)}) == ("gpu",)

    def test_ungated_kernel_needs_nothing(self):
        assert claim_studies((), "ssw", VECTORIZED,
                             {("ssw", VECTORIZED)}) == ()
