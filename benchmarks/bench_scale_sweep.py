"""Scale sweep: wall-time and peak-memory growth of the streaming mode.

The streaming execution mode (``repro run --stream``) exists so large
scales hold bounded memory: derived kernel inputs arrive as chunked
:class:`~repro.data.streaming.ChunkedSeries` views through the artifact
store instead of monolithic in-memory lists.  This bench sweeps the
streaming-enabled kernels (tsu, gbwt, gssw) over scale 0.25 → 4 on
fresh cold stores and fits log–log growth exponents for wall time and
tracemalloc peak memory.  Both must stay **sub-quadratic** — the
acceptance bar for the streaming mode (the kernels' own work is linear
in scale; a super-quadratic fit means some stage accidentally
materializes or recomputes the whole dataset).

Two passes per scale: an untraced pass for honest wall time, then a
``tracemalloc`` pass for allocation peak (tracemalloc slows execution
severely, so the traced pass contributes no timing).  Each run appends
a ``kind: "measured"`` entry to ``BENCH_scale_sweep.json`` at the repo
root through :func:`repro.obs.baseline.append_entry`.  The regression
sentinel (``repro obs check``) judges the memory exponent against
earlier entries; the wall exponent is fitted to host timings, so it is
asserted sub-quadratic here and recorded as data.

``REPRO_SCALE_SWEEP_MAX`` caps the sweep (CI perf-smoke uses 1) without
changing the fit logic.  Runs under plain pytest or standalone:
``PYTHONPATH=src python benchmarks/bench_scale_sweep.py``.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import tracemalloc

from repro.data import ArtifactStore, use_store
from repro.data.streaming import streaming
from repro.harness.runner import run_suite
from repro.obs.baseline import append_entry

#: The streaming-enabled kernels (the ones whose derived inputs dominate
#: memory at scale and arrive chunked under ``--stream``).
KERNELS = ("tsu", "gbwt", "gssw")

FULL_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)

#: Sub-quadratic acceptance bar on the fitted log-log slope.
MAX_EXPONENT = 2.0


def _scales() -> tuple[float, ...]:
    raw = os.environ.get("REPRO_SCALE_SWEEP_MAX", "")
    try:
        cap = float(raw) if raw else max(FULL_SCALES)
    except ValueError:
        cap = max(FULL_SCALES)
    picked = tuple(s for s in FULL_SCALES if s <= cap)
    return picked if len(picked) >= 2 else FULL_SCALES[:2]


def _run(scale: float, traced: bool) -> tuple[float, int]:
    """One cold streaming suite run; returns (wall seconds, peak bytes).

    Cold on purpose: a fresh artifact store per point, so every scale
    pays its full dataset build + chunk derivations and the growth fit
    measures the whole pipeline, not a warm cache.
    """
    peak = 0
    with tempfile.TemporaryDirectory(prefix="scale-sweep-") as tmp:
        with use_store(ArtifactStore(tmp)):
            with streaming():
                if traced:
                    tracemalloc.start()
                t0 = time.perf_counter()
                reports = run_suite(KERNELS, studies=("timing",), scale=scale)
                wall = time.perf_counter() - t0
                if traced:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
    errors = {k: r.error for k, r in reports.items() if r.error}
    assert not errors, f"scale {scale} kernels failed: {errors}"
    return wall, peak


def _fit_exponent(scales, values) -> float:
    """Least-squares slope of log(value) vs log(scale)."""
    xs = [math.log(s) for s in scales]
    ys = [math.log(v) for v in values]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y)
               for x, y in zip(xs, ys)) / denom


def run_experiment() -> dict:
    rows = []
    for scale in _scales():
        wall, _ = _run(scale, traced=False)
        _, peak = _run(scale, traced=True)
        rows.append({
            "scale": scale,
            "wall_seconds": round(wall, 3),
            "peak_mb": round(peak / 1e6, 2),
        })
    scales = [r["scale"] for r in rows]
    return {
        "kernels": list(KERNELS),
        "points": rows,
        "wall_growth_exponent": round(
            _fit_exponent(scales, [r["wall_seconds"] for r in rows]), 3),
        "memory_growth_exponent": round(
            _fit_exponent(scales, [r["peak_mb"] for r in rows]), 3),
        "max_allowed_exponent": MAX_EXPONENT,
    }


def _emit(results: dict) -> None:
    print()
    print(f"{'scale':>6}{'wall s':>10}{'peak MB':>10}")
    for row in results["points"]:
        print(f"{row['scale']:>6}{row['wall_seconds']:>10.2f}"
              f"{row['peak_mb']:>10.1f}")
    print(f"wall growth exponent:   {results['wall_growth_exponent']:.2f}")
    print(f"memory growth exponent: {results['memory_growth_exponent']:.2f}"
          f"  (sub-quadratic bar: < {MAX_EXPONENT:.0f})")


def test_scale_sweep():
    results = run_experiment()
    _emit(results)
    assert results["wall_growth_exponent"] < MAX_EXPONENT, (
        f"wall time grows as scale^{results['wall_growth_exponent']:.2f}; "
        f"must stay sub-quadratic"
    )
    assert results["memory_growth_exponent"] < MAX_EXPONENT, (
        f"peak memory grows as scale^{results['memory_growth_exponent']:.2f};"
        f" must stay sub-quadratic"
    )
    prior = append_entry("scale_sweep", results, kind="measured")
    print(f"trajectory: BENCH_scale_sweep.json ({len(prior) + 1} entries)")


if __name__ == "__main__":
    test_scale_sweep()
