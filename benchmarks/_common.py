"""Shared helpers for the benchmark files.

Every bench prints the paper-style rows/series AND saves them under
``benchmarks/results/`` so ``pytest benchmarks/ --benchmark-only`` leaves
reviewable artifacts regardless of output capture.

Benches that execute registry kernels go through :func:`engine_reports`
— the harness engine with the shared result store — so a full
``pytest benchmarks/`` characterizes each kernel *once* and every later
figure at the same parameters is a cache hit (delete
``benchmarks/results/cache/`` to force fresh measurements).
"""

from __future__ import annotations

from pathlib import Path

from repro.claims import CLAIMS, completion_failure
from repro.data import default_store, scenario_spec
from repro.harness.runner import run_suite
from repro.harness.store import ResultStore

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset scale shared by the benches (keeps each bench under ~1 min).
BENCH_SCALE = 0.3
BENCH_SEED = 0
#: Named dataset scenario the benches run on.  The claims table
#: (:mod:`repro.claims`) is calibrated against ``default``; regenerate a
#: figure on another corpus by flipping this (or calling the helpers
#: below with an explicit scenario).
BENCH_SCENARIO = "default"

#: The shared characterization study set: figures 6/7/8 and Table 6 all
#: read different slices of the same traced execution, so requesting the
#: full set lets one cached run serve every figure.
CHAR_STUDIES = ("topdown", "cache", "instmix")

#: Result store shared by every bench (and the CLI's --reuse) — the
#: sharded, LRU-indexed store under ``benchmarks/results/cache/``.
STORE = ResultStore(RESULTS_DIR / "cache")


def bench_spec(scenario: str = BENCH_SCENARIO):
    """The benches' shared :class:`~repro.data.DatasetSpec`."""
    return scenario_spec(scenario, scale=BENCH_SCALE, seed=BENCH_SEED)


def bench_data(scenario: str = BENCH_SCENARIO):
    """The benches' shared corpus, via the dataset artifact store."""
    return default_store().corpus(bench_spec(scenario))


def engine_reports(kernels, studies, scenario: str = BENCH_SCENARIO):
    """Run *kernels* under *studies* through the cached harness engine."""
    return run_suite(
        tuple(kernels), studies=tuple(studies),
        scale=BENCH_SCALE, seed=BENCH_SEED,
        store=STORE, scenario=scenario,
    )


def assert_claims(source: str, reports) -> None:
    """Assert *source*'s rows of the claims table (e.g. ``"Fig. 6"``) and
    each report's completion over *reports*, a ``{kernel: KernelReport}``
    mapping; a claim whose kernel has no report fails."""
    claims = [claim for claim in CLAIMS if claim.source == source]
    assert claims, f"no claims for {source!r}"
    failures = [completion_failure(report) for report in reports.values()]
    failures = [m for m in failures + [c.failure(reports) for c in claims] if m]
    assert not failures, "\n".join(failures)


def emit(name: str, text: str) -> None:
    """Print a bench's report and persist it to benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
