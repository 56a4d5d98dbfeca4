"""Sweep driver end-to-end: grid wall time and warm cache-hit rate.

The sweep layer's load-bearing claim is that running the scenario
matrix is an *incremental* operation: a cold sweep executes every grid
point once, and a repeated sweep at identical parameters executes
nothing — every point is served from the result store (whose job keys
include the dataset spec digest, so this also proves manifest-installed
cells cache correctly).  This bench runs the committed ``suite``
manifest (5 cells, one paper-fidelity) times three kernels through the
real executor twice against a fresh store and checks:

* the cold pass executes all points and the warm pass executes none
  (warm cache-hit rate == 1.0);
* the claims table (:mod:`repro.claims`) holds on the paper cell's real
  reports (topdown and instruction mix for CPU kernels, GPU counters
  for TSU);
* no grid point errors.

Each run appends a ``kind: "measured"`` entry to ``BENCH_sweep.json`` at
the repo root through :func:`repro.obs.baseline.append_entry` (the
committed trajectory) and fails only on a catastrophic cold-throughput
regression against the best prior entry, so CI noise cannot flake the
build.

Runs under plain pytest or standalone:
``PYTHONPATH=src python benchmarks/bench_sweep.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.harness.store import ResultStore
from repro.obs.baseline import append_entry
from repro.sweep import compile_sweep, run_sweep

#: The grid under test: the committed 5-cell suite manifest times three
#: kernels (two CPU shapes plus the GPU kernel) at a small scale — big
#: enough to exercise manifest install, gate studies, and the cache
#: path; small enough to stay interactive.
MANIFEST = "suite"
KERNELS = ("tsu", "gbwt", "tc")
SCALE = 0.1

#: Catastrophe-only floor: fail if cold grid throughput drops below
#: this fraction of the best committed entry.  Deliberately loose — the
#: trajectory file is for trend-watching; the assertion only catches
#: order-of-magnitude regressions (a cache-key bug forcing dataset
#: rebuilds per point, a gate study accidentally running per cell, ...).
MIN_THROUGHPUT_RATIO = 0.05


def run_experiment() -> dict:
    plan = compile_sweep(MANIFEST, kernels=KERNELS, scales=(SCALE,))
    with tempfile.TemporaryDirectory(prefix="sweep-bench-") as tmp:
        store = ResultStore(Path(tmp))

        cold_start = time.monotonic()
        cold = run_sweep(plan, store=store)
        cold_wall = time.monotonic() - cold_start

        warm_start = time.monotonic()
        warm = run_sweep(plan, store=store)
        warm_wall = time.monotonic() - warm_start

    cold_origins = cold.origin_counts()
    warm_origins = warm.origin_counts()
    paper_points = [r for r in cold.results if r.fidelity == "paper"]
    return {
        "manifest": MANIFEST,
        "kernels": list(KERNELS),
        "scale": SCALE,
        "grid_points": len(plan),
        "paper_points": len(paper_points),
        "cold_executed": cold_origins.get("executed", 0),
        "cold_wall_seconds": round(cold_wall, 3),
        "cold_points_per_sec": round(len(plan) / cold_wall, 2),
        "warm_cached": warm_origins.get("cached", 0),
        "warm_cache_hit_rate": round(
            warm_origins.get("cached", 0) / len(plan), 4),
        "warm_wall_seconds": round(warm_wall, 3),
        "warm_speedup": round(cold_wall / warm_wall, 1) if warm_wall else 0.0,
        "errors": len(cold.errors) + len(warm.errors),
        "gate_failures": len(cold.gate_failures) + len(warm.gate_failures),
    }


def _emit(results: dict) -> None:
    print()
    for key in ("grid_points", "paper_points", "cold_executed",
                "cold_wall_seconds", "cold_points_per_sec", "warm_cached",
                "warm_cache_hit_rate", "warm_speedup", "errors",
                "gate_failures"):
        print(f"{key:<24}{results[key]}")


def test_sweep():
    results = run_experiment()
    _emit(results)
    assert results["errors"] == 0
    assert results["gate_failures"] == 0, (
        "claims failed on a fidelity=paper cell"
    )
    # The cold pass executes the whole grid ...
    assert results["cold_executed"] == results["grid_points"]
    # ... and the warm pass executes none of it: every point is a
    # cache hit (dataset-digest job keys resolve manifest cells).
    assert results["warm_cache_hit_rate"] == 1.0, (
        f"warm sweep re-executed grid points: hit rate "
        f"{results['warm_cache_hit_rate']:.4f}"
    )
    assert results["paper_points"] >= 1
    # Fail only if cold grid throughput collapsed versus the best prior
    # entry.
    prior = append_entry("sweep", results, kind="measured")
    print(f"trajectory: BENCH_sweep.json ({len(prior) + 1} entries)")
    best = max((e["cold_points_per_sec"] for e in prior), default=None)
    if best is not None:
        floor = MIN_THROUGHPUT_RATIO * best
        assert results["cold_points_per_sec"] >= floor, (
            f"sweep throughput collapsed: {results['cold_points_per_sec']:.2f} "
            f"points/s vs best committed {best:.2f} (floor {floor:.2f})"
        )


if __name__ == "__main__":
    test_sweep()
