"""Request coalescing: identical submissions share one execution.

The contention test runs in a subprocess so the whole stack — service
threads, the engine execution path, the sharded store, the metrics —
is exercised exactly as a real deployment would see it, and the proof
is read from the ``serve.executed`` / ``serve.coalesced`` counters the
service itself exports (not from test-side bookkeeping).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

from serveutil import make_job, ok_report

from repro.harness.store import ResultStore
from repro.serve import (
    CACHED,
    COALESCED,
    EXECUTED,
    BenchService,
    counter_total,
)

#: Source tree for subprocess imports (tests run without installation).
SRC = Path(__file__).resolve().parents[2] / "src"


class TestCoalescing:
    def test_inflight_duplicate_attaches_to_running_execution(self, tmp_path):
        gate = threading.Event()
        calls = []

        def runner(job):
            calls.append(job)
            gate.wait(timeout=10)
            return ok_report(job)

        with BenchService(workers=1, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=runner) as svc:
            first = svc.submit_job(make_job())
            while not calls:  # first is genuinely mid-execution
                time.sleep(0.005)
            second = svc.submit_job(make_job())
            assert second.origin == COALESCED  # known at submit time
            gate.set()
            first_report = first.wait(timeout=10)
            second_report = second.wait(timeout=10)
        assert len(calls) == 1
        assert first.origin == EXECUTED
        # Both handles carry the single execution's report.
        assert first_report.kernel == second_report.kernel == "fake-ok"
        exported = svc.metrics.as_dict()
        assert counter_total(exported, "serve.executed") == 1
        assert counter_total(exported, "serve.coalesced") == 1

    def test_queued_duplicates_all_resolve_from_one_execution(self, tmp_path):
        calls = []
        svc = BenchService(workers=2, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=lambda job: (calls.append(job),
                                               ok_report(job))[1],
                           autostart=False)
        handles = [svc.submit_job(make_job()) for _ in range(5)]
        svc.start()
        reports = [handle.wait(timeout=10) for handle in handles]
        svc.shutdown()
        assert len(calls) == 1
        origins = [handle.origin for handle in handles]
        assert origins.count(EXECUTED) == 1
        assert origins.count(COALESCED) == 4
        assert all(report.error is None for report in reports)
        exported = svc.metrics.as_dict()
        assert counter_total(exported, "serve.submitted") == 5
        assert counter_total(exported, "serve.executed") == 1
        assert counter_total(exported, "serve.coalesced") == 4

    def test_distinct_jobs_do_not_coalesce(self, tmp_path):
        calls = []
        svc = BenchService(workers=2, isolation="inline",
                           store=ResultStore(tmp_path),
                           runner=lambda job: (calls.append(job),
                                               ok_report(job))[1],
                           autostart=False)
        handles = [svc.submit_job(make_job(seed=seed)) for seed in range(3)]
        svc.start()
        for handle in handles:
            handle.wait(timeout=10)
        svc.shutdown()
        assert len(calls) == 3
        assert all(handle.origin == EXECUTED for handle in handles)


#: Submits N identical real-engine requests before the workers start,
#: so every duplicate is provably concurrent with the one execution,
#: then prints the counter totals the parent asserts on.
_CONTENTION_SCRIPT = """
import json, sys
from repro.harness.store import ResultStore
from repro.serve import BenchService, counter_total

cache_dir, n = sys.argv[1], int(sys.argv[2])
service = BenchService(workers=4, store=ResultStore(cache_dir),
                       autostart=False)
handles = [service.submit("tsu", studies=("timing",), scale=0.05)
           for _ in range(n)]
service.start()
reports = [handle.wait(timeout=240) for handle in handles]
service.shutdown()
exported = service.metrics.as_dict()
print(json.dumps({
    "errors": sum(1 for report in reports if report.error is not None),
    "origins": sorted(handle.origin for handle in handles),
    "submitted": counter_total(exported, "serve.submitted"),
    "executed": counter_total(exported, "serve.executed"),
    "coalesced": counter_total(exported, "serve.coalesced"),
    "cache_hits": counter_total(exported, "serve.cache_hits"),
}))
"""


def _run_contention(cache_dir: Path, n: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_CONTENTION_SCRIPT),
         str(cache_dir), str(n)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestCoalescingUnderContention:
    def test_concurrent_identical_submissions_share_one_execution(
            self, tmp_path):
        n = 6
        cold = _run_contention(tmp_path / "cache", n)
        assert cold["errors"] == 0
        assert cold["submitted"] == n
        # The dedup proof, from the service's own metrics: exactly one
        # real execution, every other submission coalesced onto it.
        assert cold["executed"] == 1
        assert cold["coalesced"] == n - 1
        assert cold["origins"].count(EXECUTED) == 1
        assert cold["origins"].count(COALESCED) == n - 1

        # A second process against the same store executes nothing:
        # the one cached report serves every request.
        warm = _run_contention(tmp_path / "cache", n)
        assert warm["errors"] == 0
        assert warm["executed"] == 0
        assert warm["coalesced"] == 0
        assert warm["cache_hits"] == n
        assert warm["origins"] == [CACHED] * n
