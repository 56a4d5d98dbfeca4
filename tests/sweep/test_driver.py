"""Sweep driver: grid compilation, execution paths, persistence."""

import json

import pytest

from repro.data import loads_manifest, scenario_spec
from repro.errors import KernelError, SweepError
from repro.harness.runner import KernelReport
from repro.harness.store import ResultStore
from repro.sweep import (
    SWEEP_FILE,
    compile_sweep,
    load_sweep,
    run_sweep,
    save_sweep,
)

MINI = """
[manifest]
name = "mini-sweep"
axis_order = ["pop", "div"]

[axes.pop.p4]
n_haplotypes = 4
[axes.pop.p8]
fidelity = "paper"

[axes.div.d1]
fidelity = "paper"
[axes.div.d2]
rate_scale = {snp = 2.0}
"""

GOOD_TOPDOWN = {
    "retiring": 0.55, "frontend_bound": 0.05, "bad_speculation": 0.2,
    "core_bound": 0.55, "memory_bound": 0.1,
}


def mini():
    return loads_manifest(MINI)


def ok_runner(job):
    """A runner whose reports satisfy every CPU paper gate."""
    return KernelReport(
        kernel=job.kernel, scenario=job.scenario, scale=job.scale,
        seed=job.seed, wall_seconds=0.5, inputs_processed=7,
        ipc=1.5, topdown=dict(GOOD_TOPDOWN),
    )


class TestCompile:
    def test_grid_shape_and_loop_order(self):
        plan = compile_sweep(mini(), kernels=("tc", "gbwt"),
                             scales=(0.25, 0.5), seeds=(0, 1))
        assert len(plan) == 4 * 2 * 2 * 2
        # cell is the slowest axis, kernel the fastest.
        assert plan.cells[0] == plan.cells[7] == "p4-d1"
        assert plan.jobs[0].kernel == "tc"
        assert plan.jobs[1].kernel == "gbwt"
        assert plan.jobs[0].scale == plan.jobs[1].scale == 0.25
        assert plan.jobs[-1].scale == 0.5

    def test_paper_cells_get_gate_studies(self):
        plan = compile_sweep(mini(), kernels=("tc",))
        by_cell = dict(zip(plan.cells, plan.jobs))
        assert by_cell["p8-d1"].studies == ("timing", "topdown")
        assert by_cell["p4-d1"].studies == ("timing",)
        assert plan.paper[plan.cells.index("p8-d1")] is True

    def test_gate_studies_not_duplicated(self):
        plan = compile_sweep(mini(), kernels=("tc",),
                             studies=("timing", "topdown"))
        by_cell = dict(zip(plan.cells, plan.jobs))
        assert by_cell["p8-d1"].studies == ("timing", "topdown")

    def test_compile_installs_manifest_cells(self):
        compile_sweep(mini(), kernels=("tc",))
        assert scenario_spec("p4-d2").n_haplotypes == 4

    def test_compile_by_manifest_name(self):
        plan = compile_sweep("suite", kernels=("tc",))
        assert len(plan) == 5
        assert set(plan.cells) == {
            "default", "dense-pop", "divergent", "long-read-heavy",
            "sv-rich",
        }

    def test_cell_subset(self):
        plan = compile_sweep(mini(), kernels=("tc",),
                             cells=("p8-d1", "p4-d2"))
        assert plan.cells == ("p8-d1", "p4-d2")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(kernels=()), "at least one kernel"),
        (dict(kernels=("tc",), scales=()), "at least one scale"),
        (dict(kernels=("tc",), scales=(0.5, -1.0)), "must be > 0"),
        (dict(kernels=("tc",), seeds=()), "at least one seed"),
        (dict(kernels=("tc",), cells=()), "selected no cells"),
    ])
    def test_bad_grids_raise(self, kwargs, match):
        with pytest.raises(SweepError, match=match):
            compile_sweep(mini(), **kwargs)

    def test_unknown_cells_raise_sorted(self):
        with pytest.raises(SweepError, match="no cell") as excinfo:
            compile_sweep(mini(), kernels=("tc",),
                          cells=("zz-later", "aa-first"))
        message = str(excinfo.value)
        assert message.index("'aa-first'") < message.index("'zz-later'")

    def test_unknown_kernel_raises_before_running(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            compile_sweep(mini(), kernels=("no-such-kernel",))


class TestBackendAxis:
    def test_backend_axis_multiplies_grid(self):
        base = compile_sweep(mini(), kernels=("tc",))
        plan = compile_sweep(mini(), kernels=("tc",),
                             backends=("scalar", "vectorized"))
        assert len(plan) == 2 * len(base)
        assert plan.backends == ("scalar", "vectorized")
        assert ({job.backend for job in plan.jobs}
                == {"scalar", "vectorized"})

    def test_default_axis_resolves_kernel_default(self):
        plan = compile_sweep(mini(), kernels=("tc",))
        assert plan.backends == ("",)
        assert all(job.backend == "vectorized" for job in plan.jobs)

    def test_backends_get_distinct_cache_entries(self):
        from repro.harness.store import job_digest

        plan = compile_sweep(mini(), kernels=("tc",), cells=("p4-d1",),
                             backends=("scalar", "vectorized"))
        digests = {job_digest(job) for job in plan.jobs}
        assert len(digests) == len(plan.jobs) == 2

    def test_unsupported_backend_fails_at_compile(self):
        with pytest.raises(KernelError,
                           match="does not support backend 'gpu'"):
            compile_sweep(mini(), kernels=("tc",), backends=("gpu",))

    def test_results_and_roundtrip_carry_backend(self, tmp_path):
        plan = compile_sweep(mini(), kernels=("tc",), cells=("p4-d1",),
                             backends=("scalar", "vectorized"))
        sweep = run_sweep(plan, runner=ok_runner)
        assert sweep.metadata["backends"] == ["scalar", "vectorized"]
        assert ({r.backend for r in sweep.results}
                == {"scalar", "vectorized"})
        path = save_sweep(sweep, tmp_path / SWEEP_FILE)
        loaded = load_sweep(path)
        assert ({r.backend for r in loaded.results}
                == {"scalar", "vectorized"})


class TestRunnerPath:
    def test_runner_results_and_fidelity(self):
        plan = compile_sweep(mini(), kernels=("tc",))
        sweep = run_sweep(plan, runner=ok_runner)
        assert len(sweep) == 4
        assert sweep.errors == []
        assert sweep.gate_failures == []
        assert sweep.origin_counts() == {"executed": 4}
        by_cell = {r.scenario: r for r in sweep.results}
        assert by_cell["p8-d1"].fidelity == "paper"
        assert by_cell["p4-d2"].fidelity == "bench"
        assert sweep.manifest_name == "mini-sweep"
        assert sweep.metadata["grid_points"] == 4

    def test_sweep_folds_metrics_into_current_registry(self):
        from repro.obs import metrics as obs_metrics

        scoped = obs_metrics.MetricsRegistry()
        plan = compile_sweep(mini(), kernels=("tc",))
        with obs_metrics.use(scoped):
            run_sweep(plan, runner=ok_runner)
        exported = scoped.as_dict()
        counters = exported["counters"]
        assert counters[
            "sweep.results{manifest=mini-sweep,origin=executed}"] == 4.0
        assert not any(key.startswith("sweep.errors")
                       for key in counters)
        gauges = exported["gauges"]
        assert gauges["sweep.grid_points{manifest=mini-sweep}"] == 4.0
        assert gauges["sweep.wall_seconds{manifest=mini-sweep}"] >= 0.0

    def test_sweep_errors_and_gate_failures_counted(self):
        from repro.obs import metrics as obs_metrics

        def flaky(job):
            if job.scenario == "p4-d1":
                return KernelReport(kernel=job.kernel, wall_seconds=0.0,
                                    error="RuntimeError: boom")
            return ok_runner(job)

        scoped = obs_metrics.MetricsRegistry()
        plan = compile_sweep(mini(), kernels=("tc",))
        with obs_metrics.use(scoped):
            run_sweep(plan, runner=flaky)
        counters = scoped.as_dict()["counters"]
        assert counters[
            "sweep.errors{kernel=tc,manifest=mini-sweep}"] == 1.0

    def test_sweep_emits_a_root_span(self):
        from repro.obs import trace
        from repro.obs.spans import Tracer

        tracer = Tracer()
        plan = compile_sweep(mini(), kernels=("tc",))
        with trace.use(tracer):
            run_sweep(plan, runner=ok_runner)
        root = next(r for r in tracer.records()
                    if r["name"] == "sweep/mini-sweep")
        assert root["attrs"]["grid_points"] == 4

    def test_gates_checked_only_on_paper_cells(self):
        def no_topdown(job):
            return KernelReport(kernel=job.kernel, scenario=job.scenario,
                                inputs_processed=3)
        plan = compile_sweep(mini(), kernels=("tc",))
        sweep = run_sweep(plan, runner=no_topdown)
        failing = {r.scenario for r in sweep.gate_failures}
        assert failing == {"p8-d1"}
        bench = next(r for r in sweep.results if r.scenario == "p4-d2")
        assert bench.gate_violations == ()
        assert bench.ok

    def test_kernel_errors_surface(self):
        def crash(job):
            return KernelReport(kernel=job.kernel, scenario=job.scenario,
                                error="KernelError: boom")
        plan = compile_sweep(mini(), kernels=("tc",), cells=("p4-d2",))
        sweep = run_sweep(plan, runner=crash)
        assert len(sweep.errors) == 1
        assert not sweep.results[0].ok


class TestPersistence:
    def make_sweep(self):
        plan = compile_sweep(mini(), kernels=("tc",))
        return run_sweep(plan, runner=ok_runner)

    def test_round_trip(self, tmp_path):
        sweep = self.make_sweep()
        path = save_sweep(sweep, tmp_path)
        assert path == tmp_path / SWEEP_FILE
        for target in (path, tmp_path):  # file or directory
            loaded = load_sweep(target)
            assert loaded.manifest_name == sweep.manifest_name
            assert len(loaded) == len(sweep)
            for got, want in zip(loaded.results, sweep.results):
                assert got.scenario == want.scenario
                assert got.fidelity == want.fidelity
                assert got.origin == want.origin
                assert got.report.kernel == want.report.kernel
                assert got.report.topdown == want.report.topdown

    def test_load_missing_path(self, tmp_path):
        with pytest.raises(SweepError, match="cannot read"):
            load_sweep(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        target = tmp_path / SWEEP_FILE
        target.write_text("{not json")
        with pytest.raises(SweepError, match="not JSON"):
            load_sweep(target)

    def test_load_without_results(self, tmp_path):
        target = tmp_path / SWEEP_FILE
        target.write_text(json.dumps({"manifest": "x"}))
        with pytest.raises(SweepError, match="no results"):
            load_sweep(target)

    def test_load_newer_schema(self, tmp_path):
        sweep = self.make_sweep()
        path = save_sweep(sweep, tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = payload["schema_version"] + 100
        path.write_text(json.dumps(payload))
        with pytest.raises(SweepError, match="unsupported sweep schema"):
            load_sweep(path)


class TestExecutorIntegration:
    def test_real_paper_cell_passes_its_gates(self, tmp_path, small_suite):
        """tsu on the suite's paper cell: runs for real through the
        executor, gets the gpu study unioned in, and satisfies the
        occupancy-shape gate; an identical re-sweep is fully cached."""
        plan = compile_sweep("suite", kernels=("tsu",), scales=(0.25,),
                             cells=("default",))
        assert plan.jobs[0].studies == ("timing", "gpu")
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(plan, store=store)
        assert cold.errors == []
        assert cold.gate_failures == []
        assert cold.origin_counts() == {"executed": 1}
        warm = run_sweep(plan, store=store)
        assert warm.origin_counts() == {"cached": 1}
        assert warm.results[0].gate_violations == ()
