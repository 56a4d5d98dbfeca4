"""The claims table: known deviations, and the benches' strict check."""

import importlib.util
from pathlib import Path

import pytest

from repro.claims import CLAIMS, HOLDS, evaluate
from repro.harness.runner import KernelReport

BENCH_COMMON = Path(__file__).parents[1] / "benchmarks" / "_common.py"

TOPDOWN = {
    "retiring": 0.45, "frontend_bound": 0.03, "bad_speculation": 0.51,
    "core_bound": 0.0, "memory_bound": 0.01,
}
#: Fig. 8's GWFA signature: almost no vector operations.
GWFA_MIX = {"vector": 0.0, "memory": 0.2, "branch": 0.2, "scalar": 0.6,
            "register": 0.0}


def report(kernel, **kwargs):
    kwargs.setdefault("inputs_processed", 10)
    return KernelReport(kernel=kernel, **kwargs)


def bench_common():
    spec = importlib.util.spec_from_file_location("_common", BENCH_COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTable:
    def test_ids_unique_and_statuses_well_formed(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))
        for claim in CLAIMS:
            assert (claim.status == HOLDS
                    or claim.status.startswith("known-deviation: ")), claim.id

    def test_gwfa_core_bound_is_a_known_deviation(self):
        deviations = {claim.id for claim in CLAIMS if claim.status != HOLDS}
        assert deviations == {"gwfa-lr-core-bound", "gwfa-cr-core-bound"}

    def test_unknown_source_fails(self):
        with pytest.raises(AssertionError, match="no claims for 'Fig. 99'"):
            bench_common().assert_claims("Fig. 99", {})


class TestKnownDeviation:
    def test_deviation_that_still_deviates_passes(self):
        assert evaluate([report("gwfa-lr", topdown=TOPDOWN,
                                instruction_mix=GWFA_MIX)]) == [()]

    def test_deviation_that_starts_to_hold_fails(self):
        holding = report("gwfa-lr", topdown={**TOPDOWN, "core_bound": 0.3},
                         instruction_mix=GWFA_MIX)
        [(message,)] = evaluate([holding])
        assert message.startswith("gwfa-lr-core-bound (Fig. 6): ")
        assert "= 0.300" in message and "promote" in message


class TestBenchHelper:
    def test_holding_claims_pass(self):
        reports = {
            "gssw": report("gssw", topdown={**TOPDOWN, "memory_bound": 0.12}),
            "ssw": report("ssw", topdown={**TOPDOWN, "memory_bound": 0.004}),
        }
        bench_common().assert_claims("Fig. 10", reports)

    def test_missing_kernel_fails(self):
        reports = {"gssw": report("gssw", topdown=TOPDOWN)}
        with pytest.raises(AssertionError, match="no ssw report"):
            bench_common().assert_claims("Fig. 10", reports)

    def test_failure_carries_the_measured_value(self):
        reports = {
            "gssw": report("gssw", topdown={**TOPDOWN, "memory_bound": 0.02}),
            "ssw": report("ssw", topdown={**TOPDOWN, "memory_bound": 0.01}),
        }
        with pytest.raises(AssertionError, match=r"= 2\.000, want > 3"):
            bench_common().assert_claims("Fig. 10", reports)
