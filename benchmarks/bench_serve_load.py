"""Service load replay: p50/p99 latency, cache-hit rate, coalesce rate.

The serving layer's load-bearing claim is that a shared service absorbs
a skewed, duplicate-heavy request stream with a bounded number of real
executions: the result cache serves repeats of finished jobs, in-flight
coalescing serves repeats of running ones, and only the first request
per distinct job ever reaches the executor.  This bench replays a
seeded ~1200-request trace (rank-weighted popularity over a small
working set, plus injected duplicate bursts) through a fresh
:class:`BenchService` and checks the arithmetic end to end:

* ``executed`` == the working-set size — one execution per distinct job;
* ``cache_hits + coalesced`` == every duplicate request, i.e. the
  served-without-execution rate equals the trace's theoretical
  duplicate fraction;
* ``coalesced > 0`` — the bursts provably overlapped in-flight work.

The trace is replayed in chunks with a completion barrier between them,
so early chunks exercise coalescing (duplicates land while the first
occurrence is still running) and later chunks exercise the warm cache —
one cold trace measures both paths.

Each run appends a ``kind: "measured"`` entry to ``BENCH_serve_load.json``
at the repo root through :func:`repro.obs.baseline.append_entry`.  The
regression sentinel (``repro obs check``) judges its
served-without-execution rate against earlier entries; latencies and
throughput are host wall times, recorded as data.

Runs under plain pytest or standalone:
``PYTHONPATH=src python benchmarks/bench_serve_load.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.harness.executor import _prebuild_datasets
from repro.harness.store import ResultStore
from repro.obs.baseline import append_entry
from repro.serve import (
    BenchService,
    ReplayResult,
    TraceSpec,
    duplicate_fraction,
    generate_requests,
    replay,
    working_set,
)

#: The seeded request distribution under test.  1200 requests over a
#: 12-job working set (4 kernels x 3 dataset seeds) keeps the replay
#: interactive while leaving a ~99% duplicate fraction — the regime a
#: shared service actually lives in.
TRACE = TraceSpec(requests=1200, seed=0)

#: Submission chunk size.  The barrier after each chunk lets earlier
#: executions finish, so later chunks measure warm cache hits while the
#: first chunk measures in-flight coalescing.
CHUNK = 150

WORKERS = 4


def _serve_counter_totals(exported: dict) -> dict[str, int]:
    """Sum the exported ``serve.*`` counter series by base name
    (labels are baked into the exported series keys)."""
    totals: dict[str, int] = {}
    for series, value in exported.get("counters", {}).items():
        name = series.split("{", 1)[0]
        if name.startswith("serve."):
            totals[name] = totals.get(name, 0) + int(value)
    return dict(sorted(totals.items()))


def _merge(total: ReplayResult, part: ReplayResult) -> None:
    total.submitted += part.submitted
    total.completed += part.completed
    total.errors += part.errors
    total.rejected += part.rejected
    total.retries += part.retries
    total.latencies.extend(part.latencies)
    for origin, count in part.origins.items():
        total.origins[origin] = total.origins.get(origin, 0) + count
    total.wall_seconds += part.wall_seconds


def run_experiment() -> dict:
    trace = generate_requests(TRACE)
    unique = len(working_set(TRACE))
    dup_fraction = duplicate_fraction(trace)
    # Build the corpora once up front so dataset construction cost does
    # not pollute the first chunk's latency distribution.
    _prebuild_datasets(working_set(TRACE))

    result = ReplayResult()
    with tempfile.TemporaryDirectory(prefix="serve-load-") as tmp:
        store = ResultStore(Path(tmp))
        with BenchService(workers=WORKERS, store=store) as service:
            for lo in range(0, len(trace), CHUNK):
                _merge(result, replay(service, trace[lo:lo + CHUNK]))
            exported = service.metrics.as_dict()

    served_free = result.cache_hits + result.coalesced
    return {
        "requests": len(trace),
        "completed": result.completed,
        "unique_jobs": unique,
        "workers": WORKERS,
        "chunk": CHUNK,
        "duplicate_fraction": round(dup_fraction, 4),
        "p50_ms": round(1000 * result.percentile(50), 3),
        "p99_ms": round(1000 * result.percentile(99), 3),
        "executed": result.executed,
        "cache_hits": result.cache_hits,
        "coalesced": result.coalesced,
        "cache_hit_rate": round(result.cache_hits / len(trace), 4),
        "coalesce_rate": round(result.coalesced / len(trace), 4),
        "served_without_execution_rate": round(served_free / len(trace), 4),
        "rejected": result.rejected,
        "errors": result.errors,
        "wall_seconds": round(result.wall_seconds, 3),
        "requests_per_sec": round(len(trace) / result.wall_seconds, 1),
        "serve_counters": _serve_counter_totals(exported),
    }


def _emit(results: dict) -> None:
    print()
    for key in ("requests", "unique_jobs", "duplicate_fraction",
                "p50_ms", "p99_ms", "cache_hit_rate", "coalesce_rate",
                "served_without_execution_rate", "executed", "rejected",
                "errors", "wall_seconds", "requests_per_sec"):
        print(f"{key:<30}{results[key]}")


def test_serve_load():
    results = run_experiment()
    _emit(results)
    assert results["errors"] == 0
    assert results["completed"] == TRACE.requests
    # One real execution per distinct job — the dedup layer's contract.
    assert results["executed"] == results["unique_jobs"], (
        f"{results['executed']} executions for "
        f"{results['unique_jobs']} distinct jobs"
    )
    # Every duplicate request was served without a new execution.
    assert results["served_without_execution_rate"] \
        >= results["duplicate_fraction"], (
        f"served-without-execution rate "
        f"{results['served_without_execution_rate']:.4f} below the "
        f"trace's duplicate fraction {results['duplicate_fraction']:.4f}"
    )
    # The bursts provably overlapped in-flight work.
    assert results["coalesced"] > 0, "no request ever coalesced"
    prior = append_entry("serve_load", results, kind="measured")
    print(f"trajectory: BENCH_serve_load.json ({len(prior) + 1} entries)")


if __name__ == "__main__":
    test_serve_load()
