"""BenchService: the async job API, caching, admission control, obs."""

from __future__ import annotations

import threading
import time

import pytest
from serveutil import make_job, ok_report

from repro.errors import (
    KernelError,
    ServeError,
    ServeTimeout,
    ServiceOverloaded,
)
from repro.harness.store import ResultStore
from repro.obs import trace
from repro.obs.spans import Tracer
from repro.serve import (
    CACHED,
    DONE,
    EXECUTED,
    QUEUED,
    BenchService,
    counter_total,
)


def counting_runner(calls: list, delay: float = 0.0):
    """A runner that records each executed job and returns an ok report."""

    def run(job):
        calls.append(job)
        if delay:
            time.sleep(delay)
        return ok_report(job)

    return run


class TestAsyncJobAPI:
    def test_submit_returns_immediately_wait_returns_report(self, tmp_path):
        calls = []
        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=counting_runner(calls, delay=0.05)) as svc:
            handle = svc.submit_job(make_job(seed=1))
            report = handle.wait(timeout=10)
        assert report.kernel == "fake-ok"
        assert handle.done
        assert handle.origin == EXECUTED
        assert handle.poll().state == DONE
        assert handle.latency_seconds is not None
        assert handle.latency_seconds >= 0.05
        assert len(calls) == 1

    def test_poll_reports_queued_before_start(self, tmp_path):
        svc = BenchService(workers=1, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]), autostart=False)
        handle = svc.submit_job(make_job())
        assert handle.poll().state == QUEUED
        assert not handle.done
        svc.start()
        handle.wait(timeout=10)
        svc.shutdown()

    def test_wait_timeout_raises_serve_timeout(self, tmp_path):
        svc = BenchService(workers=1, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]), autostart=False)
        handle = svc.submit_job(make_job())
        with pytest.raises(ServeTimeout, match="queued"):
            handle.wait(timeout=0.05)
        svc.start()
        handle.wait(timeout=10)
        svc.shutdown()

    def test_subscribe_before_and_after_resolution(self, tmp_path):
        seen = []
        svc = BenchService(workers=1, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]), autostart=False)
        handle = svc.submit_job(make_job())
        handle.subscribe(lambda report: seen.append(("early", report.kernel)))
        svc.start()
        handle.wait(timeout=10)
        handle.subscribe(lambda report: seen.append(("late", report.kernel)))
        svc.shutdown()
        assert seen == [("early", "fake-ok"), ("late", "fake-ok")]

    def test_subscriber_exception_does_not_kill_worker(self, tmp_path):
        def explode(_report):
            raise RuntimeError("subscriber bug")

        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=counting_runner([])) as svc:
            first = svc.submit_job(make_job(seed=1))
            first.subscribe(explode)
            first.wait(timeout=10)
            # The worker survived and still serves the next job.
            second = svc.submit_job(make_job(seed=2))
            assert second.wait(timeout=10).error is None

    def test_submit_validates_kernel_name(self, tmp_path):
        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=counting_runner([])) as svc:
            with pytest.raises(KernelError):
                svc.submit("no-such-kernel")

    def test_submit_after_shutdown_rejected(self, tmp_path):
        svc = BenchService(workers=1, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]))
        svc.shutdown()
        with pytest.raises(ServeError, match="shutting down"):
            svc.submit_job(make_job())

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            BenchService(workers=0, autostart=False)
        with pytest.raises(ServeError):
            BenchService(isolation="container", autostart=False)

    def test_stats_snapshot(self, tmp_path):
        with BenchService(workers=3, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=counting_runner([])) as svc:
            svc.submit_job(make_job()).wait(timeout=10)
            stats = svc.stats()
        assert stats["workers"] == 3
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
        assert counter_total(stats["metrics"], "serve.submitted") == 1


class TestResultCaching:
    def test_cache_hit_resolves_without_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job(seed=3)
        store.save(job, ok_report(job))
        calls = []
        with BenchService(workers=1, isolation="inline", store=store,
                          runner=counting_runner(calls)) as svc:
            handle = svc.submit_job(job)
            report = handle.wait(timeout=10)
        assert handle.origin == CACHED
        assert report.kernel == job.kernel
        assert calls == []
        exported = svc.metrics.as_dict()
        assert counter_total(exported, "serve.cache_hits") == 1
        assert counter_total(exported, "serve.executed") == 0

    def test_execution_populates_cache_for_next_submission(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []
        job = make_job(seed=4)
        with BenchService(workers=1, isolation="inline", store=store,
                          runner=counting_runner(calls)) as svc:
            svc.submit_job(job).wait(timeout=10)
            rerun = svc.submit_job(job)
            rerun.wait(timeout=10)
        assert len(calls) == 1
        assert rerun.origin == CACHED

    def test_failed_report_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job(seed=5)

        def crash(_job):
            raise RuntimeError("boom")

        with BenchService(workers=1, isolation="inline", store=store,
                          runner=crash) as svc:
            report = svc.submit_job(job).wait(timeout=10)
        assert report.error == "RuntimeError: boom"
        assert store.load(job) is None
        exported = svc.metrics.as_dict()
        assert counter_total(exported, "serve.executed") == 1

    def test_worker_failure_report_keeps_the_backend(self, tmp_path):
        def crash(_job):
            raise RuntimeError("boom")

        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path), runner=crash) as svc:
            report = svc.submit("tc", backend="scalar").wait(timeout=10)
        assert report.error == "RuntimeError: boom"
        assert report.backend == "scalar"

    def test_reuse_false_always_executes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []
        job = make_job(seed=6)
        with BenchService(workers=1, isolation="inline",
                          runner=counting_runner(calls)) as svc:
            svc.submit_job(job).wait(timeout=10)
            handle = svc.submit_job(job)
            handle.wait(timeout=10)
        assert len(calls) == 2
        assert handle.origin == EXECUTED


class TestAdmissionControl:
    def test_overload_rejected_with_retry_after(self, tmp_path):
        svc = BenchService(workers=1, max_queue=2, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]), autostart=False)
        svc.submit_job(make_job(seed=1))
        svc.submit_job(make_job(seed=2))
        with pytest.raises(ServiceOverloaded) as excinfo:
            svc.submit_job(make_job(seed=3))
        assert excinfo.value.retry_after > 0
        exported = svc.metrics.as_dict()
        assert counter_total(exported, "serve.rejected") == 1
        svc.start()
        svc.shutdown()

    def test_duplicates_and_hits_bypass_admission_control(self, tmp_path):
        store = ResultStore(tmp_path)
        cached_job = make_job(seed=9)
        store.save(cached_job, ok_report(cached_job))
        svc = BenchService(workers=1, max_queue=1, isolation="inline",
                           store=store, runner=counting_runner([]),
                           autostart=False)
        queued = svc.submit_job(make_job(seed=1))  # fills the queue
        # A duplicate coalesces rather than occupying a queue slot...
        dup = svc.submit_job(make_job(seed=1))
        # ...and a cache hit never touches the queue at all.
        hit = svc.submit_job(cached_job)
        assert dup.origin == "coalesced"
        assert hit.origin == CACHED
        svc.start()
        queued.wait(timeout=10)
        svc.shutdown()

    def test_retry_after_tracks_backlog(self, tmp_path):
        svc = BenchService(workers=2, max_queue=0, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=counting_runner([]), autostart=False)
        with pytest.raises(ServiceOverloaded) as shallow:
            svc.submit_job(make_job(seed=1))
        svc.max_queue = 4
        svc.submit_job(make_job(seed=2))
        svc.submit_job(make_job(seed=3))
        svc.submit_job(make_job(seed=4))
        svc.submit_job(make_job(seed=5))
        with pytest.raises(ServiceOverloaded) as deep:
            svc.submit_job(make_job(seed=6))
        assert deep.value.retry_after > shallow.value.retry_after
        svc.start()
        svc.shutdown()


class TestObservability:
    def test_spans_and_latency_histograms(self, tmp_path):
        tracer = Tracer()
        job = make_job(seed=7)
        with trace.use(tracer):
            with BenchService(workers=1, isolation="inline",
                              store=ResultStore(tmp_path),
                              runner=counting_runner([], delay=0.01)) as svc:
                svc.submit_job(job).wait(timeout=10)
                svc.submit_job(job).wait(timeout=10)  # warm: cache hit
        names = [record["name"] for record in tracer.records()]
        assert any(name.startswith("serve/execute/") for name in names)
        assert any(name.startswith("serve/queue-wait/") for name in names)
        exported = svc.metrics.as_dict()
        latency_series = [key for key in exported["histograms"]
                          if key.startswith("serve.latency_seconds")]
        assert any("origin=executed" in key for key in latency_series)
        assert any("origin=cached" in key for key in latency_series)
        total = sum(exported["histograms"][key]["count"]
                    for key in latency_series)
        assert total == 2

    def test_shutdown_merges_metrics_into_ambient_registry(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            with BenchService(workers=1, isolation="inline",
                              store=ResultStore(tmp_path),
                              runner=counting_runner([])) as svc:
                svc.submit_job(make_job()).wait(timeout=10)
        exported = registry.as_dict()
        assert counter_total(exported, "serve.submitted") == 1
        assert counter_total(exported, "serve.executed") == 1


class TestEngineExecution:
    """The real engine path (no injected runner) with fake kernels."""

    def test_inline_executes_registered_kernel(self, fake_kernels, tmp_path):
        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path)) as svc:
            handle = svc.submit("fake-ok", studies=("timing",), scale=0.05)
            report = handle.wait(timeout=60)
        assert report.error is None
        assert report.kernel == "fake-ok"
        assert handle.origin == EXECUTED

    def test_worker_survives_crashing_kernel(self, fake_kernels, tmp_path):
        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path)) as svc:
            crashed = svc.submit("fake-crash", scale=0.05)
            assert crashed.wait(timeout=60).error is not None
            healthy = svc.submit("fake-ok", scale=0.05)
            assert healthy.wait(timeout=60).error is None

    def test_process_isolation_enforces_timeout(self, fake_kernels, tmp_path):
        with BenchService(workers=1, isolation="process", timeout=1.0,
                          store=ResultStore(tmp_path)) as svc:
            handle = svc.submit("fake-hang", scale=0.05)
            report = handle.wait(timeout=60)
        assert report.error is not None
        assert "Timeout" in report.error
        # Timed-out reports are failures: never cached.
        assert ResultStore(tmp_path).load(handle.job) is None


class TestConcurrency:
    def test_parallel_workers_drain_distinct_jobs(self, tmp_path):
        started = []
        gate = threading.Event()

        def runner(job):
            started.append(job.seed)
            gate.wait(timeout=10)
            return ok_report(job)

        with BenchService(workers=4, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=runner) as svc:
            handles = [svc.submit_job(make_job(seed=seed))
                       for seed in range(4)]
            deadline = time.time() + 10
            while len(started) < 4 and time.time() < deadline:
                time.sleep(0.01)
            # All four distinct jobs run concurrently before any finishes.
            assert sorted(started) == [0, 1, 2, 3]
            gate.set()
            for handle in handles:
                assert handle.wait(timeout=10).error is None
