"""Load generator: seeded traces, duplicate accounting, replay driver."""

from __future__ import annotations

import pytest
from serveutil import ok_report

from repro.harness.store import ResultStore, job_digest
from repro.serve import (
    BenchService,
    TraceSpec,
    duplicate_fraction,
    generate_requests,
    replay,
    working_set,
)

#: A small, fast spec — validation only (no execution) plus fake-runner
#: replays keep these tests sub-second.
SMALL = TraceSpec(requests=80, seed=3, dataset_seeds=(0, 1), scale=0.05)


class TestTraceGeneration:
    def test_working_set_is_kernels_times_dataset_seeds(self):
        jobs = working_set(SMALL)
        assert len(jobs) == len(SMALL.kernels) * len(SMALL.dataset_seeds)
        assert len({job_digest(job) for job in jobs}) == len(jobs)

    def test_trace_is_a_pure_function_of_its_seed(self):
        first = [job_digest(job) for job in generate_requests(SMALL)]
        second = [job_digest(job) for job in generate_requests(SMALL)]
        assert first == second
        reseeded = [job_digest(job) for job in
                    generate_requests(TraceSpec(
                        requests=80, seed=4, dataset_seeds=(0, 1),
                        scale=0.05))]
        assert reseeded != first

    def test_trace_length_and_membership(self):
        trace = generate_requests(SMALL)
        assert len(trace) == SMALL.requests
        allowed = {job_digest(job) for job in working_set(SMALL)}
        assert {job_digest(job) for job in trace} <= allowed

    def test_bursts_inject_consecutive_duplicates(self):
        trace = generate_requests(SMALL)
        longest = run = 1
        for previous, current in zip(trace, trace[1:]):
            run = run + 1 if job_digest(previous) == job_digest(current) else 1
            longest = max(longest, run)
        assert longest >= SMALL.burst

    def test_burst_free_spec_has_no_injection(self):
        spec = TraceSpec(requests=40, seed=3, dataset_seeds=(0,),
                         scale=0.05, burst=0, burst_fraction=0.0)
        assert len(generate_requests(spec)) == 40

    def test_duplicate_fraction(self):
        trace = generate_requests(SMALL)
        unique = len({job_digest(job) for job in trace})
        assert duplicate_fraction(trace) == pytest.approx(
            1.0 - unique / len(trace))
        assert duplicate_fraction([]) == 0.0


class TestReplay:
    def test_replay_accounts_for_every_request(self, tmp_path):
        trace = generate_requests(SMALL)
        executions = []

        def runner(job):
            executions.append(job_digest(job))
            return ok_report(job)

        with BenchService(workers=2, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=runner) as svc:
            result = replay(svc, trace)

        assert result.submitted == result.completed == len(trace)
        assert result.errors == 0
        # Conservation: every request either executed, coalesced onto an
        # in-flight execution, or hit the cache.
        assert (result.executed + result.coalesced + result.cache_hits
                == len(trace))
        # Each distinct job executed at most once (single-flight + cache).
        assert len(executions) == len(set(executions)) == result.executed
        assert len(result.latencies) == len(trace)
        assert result.percentile(99) >= result.percentile(50) >= 0.0
        assert result.rate("executed") == pytest.approx(
            result.executed / len(trace))

    def test_replay_retries_after_overload(self, tmp_path):
        import time

        def slow(job):
            time.sleep(0.05)
            return ok_report(job)

        spec = TraceSpec(requests=6, seed=0, kernels=("tsu",),
                         dataset_seeds=(0, 1, 2), scale=0.05,
                         burst=0, burst_fraction=0.0)
        distinct = working_set(spec)  # three distinct jobs
        trace = distinct * 2
        with BenchService(workers=1, max_queue=1, isolation="inline",
                          store=ResultStore(tmp_path),
                          runner=slow) as svc:
            result = replay(svc, trace, wait_timeout=30)
        assert result.completed == len(trace)
        assert result.errors == 0
        # With a one-deep queue and a slow runner, at least one distinct
        # submission had to back off and retry.
        assert result.rejected >= 1
        assert result.retries == result.rejected
