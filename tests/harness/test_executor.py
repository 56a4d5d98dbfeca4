"""The execution layer: plans, parallel dispatch, isolation, reuse."""

import time

import pytest
from fakes import CrashKernel, OkKernel

from repro.errors import KernelError
from repro.harness.executor import (
    CACHED,
    EXECUTED,
    Job,
    compile_plan,
    execute_jobs,
)
from repro.harness.runner import run_suite
from repro.harness.store import ResultStore
from repro.obs import trace
from repro.obs.spans import Tracer
from repro.uarch.cache import MACHINE_A, MACHINE_B


class TestPlanCompilation:
    def test_one_job_per_kernel(self):
        plan = compile_plan(("gbwt", "tsu"), studies=("timing",), scale=0.25)
        assert len(plan) == 2
        assert [job.kernel for job in plan.jobs] == ["gbwt", "tsu"]
        assert plan.jobs[0].studies == ("timing",)
        assert plan.jobs[0].cache_config is MACHINE_B

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KernelError):
            compile_plan(("no-such-kernel",))

    def test_unknown_study_rejected(self):
        with pytest.raises(KernelError):
            compile_plan(("gbwt",), studies=("vtune",))

    def test_jobs_are_picklable_values(self):
        import pickle

        job = Job(kernel="gbwt", studies=("timing",), cache_config=MACHINE_A)
        assert pickle.loads(pickle.dumps(job)) == job


class TestFailureIsolation:
    def test_serial_crash_is_isolated(self, fake_kernels):
        reports = run_suite(("fake-crash", "fake-ok"), jobs=1)
        assert set(reports) == {"fake-crash", "fake-ok"}
        assert reports["fake-crash"].error == "RuntimeError: boom"
        assert not reports["fake-crash"].ok
        assert reports["fake-ok"].ok
        assert reports["fake-ok"].inputs_processed == 3

    def test_parallel_crash_is_isolated(self, fake_kernels):
        reports = run_suite(("fake-crash", "fake-ok"), jobs=2)
        assert set(reports) == {"fake-crash", "fake-ok"}
        assert "RuntimeError: boom" in reports["fake-crash"].error
        assert reports["fake-ok"].ok
        assert reports["fake-ok"].inputs_processed == 3

    def test_dead_worker_is_isolated(self, fake_kernels):
        reports = run_suite(("fake-die", "fake-ok"), jobs=2)
        assert "WorkerDied" in reports["fake-die"].error
        assert reports["fake-ok"].ok

    def test_timeout_terminates_hung_kernel(self, fake_kernels):
        start = time.monotonic()
        reports = run_suite(("fake-hang", "fake-ok"), jobs=2, timeout=1.0)
        elapsed = time.monotonic() - start
        assert "Timeout" in reports["fake-hang"].error
        assert reports["fake-ok"].ok
        assert elapsed < 30  # the 300 s sleep was terminated

    def test_timeout_enforced_with_one_worker(self, fake_kernels):
        reports = run_suite(("fake-nap", "fake-ok"), jobs=1, timeout=0.5)
        assert reports["fake-nap"].error == "Timeout: exceeded 0.5s"
        assert reports["fake-ok"].ok

    def test_report_past_its_deadline_is_a_timeout(self, fake_kernels):
        """A report that arrives late is judged on arrival, not passed
        because it beat the next deadline poll; it keeps its spans."""
        reports = run_suite(("fake-doze",), jobs=1, timeout=0.005)
        report = reports["fake-doze"]
        assert report.error == "Timeout: exceeded 0.005s"
        names = {r["name"] for r in report.spans}
        assert "kernel/fake-doze/execute" in names

    def test_failure_report_carries_metadata(self, fake_kernels):
        reports = run_suite(
            ("fake-crash",), scale=0.5, seed=7, cache_config=MACHINE_A
        )
        report = reports["fake-crash"]
        assert (report.scale, report.seed, report.machine) == (
            0.5, 7, "machine_a",
        )


class TestParallelDispatch:
    def test_matches_serial_results(self, fake_kernels):
        serial = run_suite(("fake-ok",), studies=("instmix",), jobs=1)
        parallel = run_suite(("fake-ok",), studies=("instmix",), jobs=2)
        assert parallel["fake-ok"].instruction_mix == (
            serial["fake-ok"].instruction_mix
        )
        assert parallel["fake-ok"].instructions == serial["fake-ok"].instructions

    def test_real_kernel_over_the_pool(self):
        reports = run_suite(("gbwt",), studies=("timing",), scale=0.25, jobs=2)
        assert reports["gbwt"].ok
        assert reports["gbwt"].inputs_processed > 0

    def test_bad_job_count_rejected(self):
        plan = compile_plan(("gbwt",))
        with pytest.raises(KernelError):
            execute_jobs(plan.jobs, workers=0)


class TestExecutorObservability:
    def test_parallel_reports_carry_worker_spans(self, fake_kernels):
        reports = run_suite(("fake-ok",), jobs=2)
        names = {r["name"] for r in reports["fake-ok"].spans}
        assert "kernel/fake-ok/execute" in names
        assert "kernel/fake-ok/prepare" in names

    def test_executor_metrics_merged_into_report(self, fake_kernels):
        reports = run_suite(("fake-ok",), jobs=2)
        metrics = reports["fake-ok"].metrics
        gauges = metrics["gauges"]
        assert gauges["executor.wall_seconds{kernel=fake-ok}"] > 0
        assert "executor.queue_wait_seconds{kernel=fake-ok}" in gauges
        counters = metrics["counters"]
        assert counters["executor.jobs{kernel=fake-ok,outcome=ok}"] == 1.0
        # The worker's own kernel metrics survived the merge.
        assert counters["kernel.runs{backend=vectorized,kernel=fake-ok}"] == 1.0

    def test_timeout_report_carries_wall_and_partial_spans(
        self, fake_kernels
    ):
        reports = run_suite(("fake-hang",), jobs=2, timeout=1.0)
        report = reports["fake-hang"]
        assert "Timeout" in report.error
        assert report.wall_seconds >= 1.0
        names = {r["name"] for r in report.spans}
        # prepare finished (and hit the spool) before the hang; the
        # execute span never closed, so it cannot appear.
        assert "kernel/fake-hang/prepare" in names
        assert "kernel/fake-hang/execute" not in names

    def test_crash_report_carries_wall_time_and_spans(self, fake_kernels):
        reports = run_suite(("fake-crash",), jobs=2)
        report = reports["fake-crash"]
        assert report.wall_seconds > 0
        names = {r["name"] for r in report.spans}
        # The execute span closed on the way out of the raise.
        assert "kernel/fake-crash/execute" in names

    def test_serial_crash_report_carries_wall_time(self, fake_kernels):
        reports = run_suite(("fake-crash",), jobs=1)
        assert reports["fake-crash"].wall_seconds > 0

    def test_dead_worker_report_carries_wall_and_spool_spans(
        self, fake_kernels
    ):
        reports = run_suite(("fake-die",), jobs=2)
        report = reports["fake-die"]
        assert "WorkerDied" in report.error
        assert report.wall_seconds > 0
        names = {r["name"] for r in report.spans}
        assert "kernel/fake-die/prepare" in names

    def test_parent_tracer_gets_job_lifecycle_records(self, fake_kernels):
        tracer = Tracer()
        with trace.use(tracer):
            run_suite(("fake-ok", "fake-crash"), jobs=2)
        records = [r for r in tracer.records()
                   if r["name"].startswith("executor/job/")]
        by_name = {r["name"]: r for r in records}
        assert by_name["executor/job/fake-ok"]["attrs"]["outcome"] == "ok"
        assert by_name["executor/job/fake-crash"]["attrs"]["outcome"] == "error"


class TestSpanSpool:
    def job(self, kernel="fake-ok"):
        return Job(kernel=kernel, studies=("timing",),
                   cache_config=MACHINE_B)

    def test_spool_files_removed_after_success(self, fake_kernels,
                                               tmp_path):
        from repro.harness.executor import _execute_pool

        reports = _execute_pool([self.job()], workers=2, timeout=None,
                                spool_dir=tmp_path)
        assert reports[0].ok
        # Spans shipped with the report; the crash-recovery spool has
        # served its purpose and must not accumulate on disk.
        assert list(tmp_path.iterdir()) == []

    def test_spool_recovered_then_removed_on_timeout(self, fake_kernels,
                                                     tmp_path):
        from repro.harness.executor import _execute_pool

        reports = _execute_pool([self.job("fake-hang")], workers=2,
                                timeout=1.0, spool_dir=tmp_path)
        assert "Timeout" in reports[0].error
        names = {r["name"] for r in reports[0].spans}
        assert "kernel/fake-hang/prepare" in names
        assert list(tmp_path.iterdir()) == []

    def test_cap_drops_spool_lines_but_report_keeps_spans(
        self, fake_kernels, monkeypatch
    ):
        from repro.harness import executor

        # Forked workers inherit the patched module constant.
        monkeypatch.setattr(executor, "SPOOL_MAX_BYTES", 512)
        reports = run_suite(("fake-spanspam",), jobs=2)
        report = reports["fake-spanspam"]
        assert report.ok
        names = {r["name"] for r in report.spans}
        # In-memory records are unaffected by the spool cap: every
        # spammed span still ships back with the successful report.
        assert "spam/0" in names and "spam/63" in names
        dropped = report.metrics["counters"][
            "executor.spool_dropped_spans"]
        assert dropped > 0

    def test_default_cap_drops_nothing_for_normal_runs(
        self, fake_kernels
    ):
        reports = run_suite(("fake-spanspam",), jobs=2)
        counters = reports["fake-spanspam"].metrics["counters"]
        assert "executor.spool_dropped_spans" not in counters


class TestReuse:
    def test_second_run_executes_no_kernel(self, fake_kernels, tmp_path):
        store = ResultStore(tmp_path)
        first = run_suite(("fake-ok",), studies=("timing",), store=store)
        assert OkKernel.executions == 1
        second = run_suite(("fake-ok",), studies=("timing",), store=store)
        assert OkKernel.executions == 1  # cache hit: zero executions
        assert second["fake-ok"] == first["fake-ok"]

    def test_different_parameters_miss(self, fake_kernels, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(("fake-ok",), studies=("timing",), seed=0, store=store)
        run_suite(("fake-ok",), studies=("timing",), seed=1, store=store)
        assert OkKernel.executions == 2

    def test_failures_are_not_cached(self, fake_kernels, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(("fake-crash",), store=store)
        assert CrashKernel.executions == 1
        run_suite(("fake-crash",), store=store)
        assert CrashKernel.executions == 2  # re-executed, not served

    def test_reuse_off_always_executes(self, fake_kernels, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(("fake-ok",), store=store)
        run_suite(("fake-ok",), store=None)
        assert OkKernel.executions == 2


class TestExecuteJobs:
    def job(self, seed=0):
        return Job(kernel="fake-ok", studies=("timing",), seed=seed,
                   cache_config=MACHINE_B)

    def test_one_outcome_per_job_preserving_multiplicity(
        self, fake_kernels
    ):
        """Identical jobs in one batch each get their own outcome — the
        sweep driver relies on positional alignment with its grid."""
        jobs = (self.job(), self.job(), self.job(seed=1))
        outcomes = execute_jobs(jobs)
        assert len(outcomes) == 3
        assert [o.job for o in outcomes] == list(jobs)
        for outcome in outcomes:
            assert outcome.report.kernel == "fake-ok"
            assert outcome.report.ok

    def test_origin_tracks_the_result_cache(self, fake_kernels, tmp_path):
        store = ResultStore(tmp_path)
        cold = execute_jobs((self.job(),), store=store)
        assert [o.origin for o in cold] == [EXECUTED]
        warm = execute_jobs((self.job(),), store=store)
        assert [o.origin for o in warm] == [CACHED]
        assert OkKernel.executions == 1
        assert warm[0].report == cold[0].report
