"""The perf-regression sentinel: robust baselines over trajectories.

The repo-root ``BENCH_*.json`` files accumulate one entry per
benchmarked build (the trajectory benches in ``benchmarks/`` append
them), which makes speed regressions visible PR-over-PR — *if* someone
looks.  This module is the automated looker: for each tracked series it
takes the trailing window of historical entries, computes a robust
baseline (median ± MAD — a single outlier build cannot poison it), and
classifies the newest entry ``ok`` / ``warn`` / ``regress`` against
per-metric ratio thresholds.  ``repro obs check`` renders the table,
writes machine-readable ``obs_check.json``, and exits nonzero on any
``regress`` so CI can gate on it.

Two sources feed the sentinel:

* :func:`check_trajectories` — the committed ``BENCH_sweep.json`` /
  ``BENCH_serve_load.json`` / ``BENCH_trace_throughput.json`` /
  ``BENCH_scale_sweep.json`` series listed in :data:`TRACKED_SERIES`.
  Fewer than two entries means there is nothing to compare yet; the
  series reports ``no-history`` (which counts as ok) rather than
  blocking young trajectories.
* :func:`check_reports` — fresh :class:`~repro.harness.runner.
  KernelReport` metrics: per-kernel wall seconds (lower is better) and
  IPC (higher is better) of a candidate reports file against a baseline
  reports file, for ad-hoc before/after gating of a branch.

Thresholds combine a multiplicative guard (``value/median`` beyond
``warn_ratio``/``regress_ratio``) with an additive MAD guard (3·MAD /
6·MAD), taking whichever is more permissive — so noisy series need to
move both materially *and* beyond their own historical jitter before
they alarm.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ReproError

#: Trailing history entries a baseline is computed over.
DEFAULT_WINDOW = 8

#: Schema version stamped on obs_check.json.
CHECK_SCHEMA = 1

#: Ranking used to fold per-series statuses into an overall status.
_SEVERITY = {"ok": 0, "no-history": 0, "missing": 0, "warn": 1, "regress": 2}

#: MAD multipliers for the additive guard (warn, regress).
MAD_WARN = 3.0
MAD_REGRESS = 6.0


@dataclass(frozen=True)
class SeriesSpec:
    """One tracked trajectory series and its alarm thresholds.

    *direction* says which way is worse: ``"lower"`` means lower values
    are better (latency, wall time) so growth alarms; ``"higher"``
    means higher is better (throughput, hit rate) so shrinkage alarms.
    Ratios are expressed as degradation factors — ``regress_ratio=2.0``
    on a lower-better series fires when the candidate is 2x the
    baseline; on a higher-better series when it is half.
    """

    name: str
    file: str
    field: str
    direction: str = "lower"
    warn_ratio: float = 1.25
    regress_ratio: float = 1.5


#: The series `repro obs check` watches by default.  Latency thresholds
#: are deliberately below 2.0 so a doubled latency is a hard regression;
#: rate-style series get tight ratios because they are already
#: normalized.
TRACKED_SERIES: tuple[SeriesSpec, ...] = (
    SeriesSpec("serve_load.p50_ms", "BENCH_serve_load.json",
               "p50_ms", "lower", warn_ratio=1.3, regress_ratio=1.8),
    SeriesSpec("serve_load.p99_ms", "BENCH_serve_load.json",
               "p99_ms", "lower", warn_ratio=1.3, regress_ratio=1.8),
    SeriesSpec("serve_load.requests_per_sec", "BENCH_serve_load.json",
               "requests_per_sec", "higher",
               warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("serve_load.served_without_execution_rate",
               "BENCH_serve_load.json", "served_without_execution_rate",
               "higher", warn_ratio=1.05, regress_ratio=1.25),
    SeriesSpec("sweep.cold_points_per_sec", "BENCH_sweep.json",
               "cold_points_per_sec", "higher",
               warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("sweep.warm_speedup", "BENCH_sweep.json",
               "warm_speedup", "higher", warn_ratio=1.5, regress_ratio=3.0),
    SeriesSpec("sweep.warm_cache_hit_rate", "BENCH_sweep.json",
               "warm_cache_hit_rate", "higher",
               warn_ratio=1.05, regress_ratio=1.25),
    SeriesSpec("sweep.cold_wall_seconds", "BENCH_sweep.json",
               "cold_wall_seconds", "lower",
               warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("trace_throughput.overall_speedup",
               "BENCH_trace_throughput.json", "overall_speedup",
               "higher", warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("trace_throughput.characterization_wall_seconds",
               "BENCH_trace_throughput.json",
               "characterization_wall_seconds", "lower",
               warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("trace_throughput.instrument_replay_seconds",
               "BENCH_trace_throughput.json",
               "instrument_replay_seconds", "lower",
               warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("scale_sweep.wall_growth_exponent", "BENCH_scale_sweep.json",
               "wall_growth_exponent", "lower",
               warn_ratio=1.2, regress_ratio=1.5),
    SeriesSpec("scale_sweep.memory_growth_exponent",
               "BENCH_scale_sweep.json", "memory_growth_exponent",
               "lower", warn_ratio=1.2, regress_ratio=1.5),
    SeriesSpec("layout_crossover.crossover_nodes",
               "BENCH_layout_crossover.json", "crossover_nodes",
               "lower", warn_ratio=1.3, regress_ratio=2.0),
    SeriesSpec("layout_crossover.gpu_speedup_at_max",
               "BENCH_layout_crossover.json", "gpu_speedup_at_max",
               "higher", warn_ratio=1.3, regress_ratio=2.0),
)


@dataclass
class SeriesCheck:
    """One series' verdict: the candidate value against its baseline."""

    series: str
    file: str
    status: str
    value: "float | None" = None
    baseline: "float | None" = None
    mad: "float | None" = None
    ratio: "float | None" = None
    window: int = 0
    direction: str = "lower"
    note: str = ""


def robust_center(values: Sequence[float]) -> tuple[float, float]:
    """(median, MAD) of *values* — the outlier-resistant baseline."""
    if not values:
        raise ReproError("cannot baseline an empty series")
    ordered = sorted(values)
    median = _median(ordered)
    mad = _median(sorted(abs(v - median) for v in ordered))
    return median, mad


def _median(ordered: Sequence[float]) -> float:
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def classify(history: Sequence[float], value: float,
             spec: SeriesSpec) -> SeriesCheck:
    """Classify *value* against the trailing *history* of *spec*."""
    check = SeriesCheck(series=spec.name, file=spec.file, status="ok",
                        value=value, window=len(history),
                        direction=spec.direction)
    if not history:
        check.status = "no-history"
        check.note = "first entry; nothing to compare against"
        return check
    median, mad = robust_center(history)
    check.baseline = median
    check.mad = mad
    if spec.direction == "lower":
        check.ratio = value / median if median else math.inf
        warn_at = max(median * spec.warn_ratio, median + MAD_WARN * mad)
        regress_at = max(median * spec.regress_ratio,
                         median + MAD_REGRESS * mad)
        if value > regress_at:
            check.status = "regress"
        elif value > warn_at:
            check.status = "warn"
    elif spec.direction == "higher":
        check.ratio = median / value if value else math.inf
        warn_at = min(median / spec.warn_ratio, median - MAD_WARN * mad)
        regress_at = min(median / spec.regress_ratio,
                         median - MAD_REGRESS * mad)
        if value < regress_at:
            check.status = "regress"
        elif value < warn_at:
            check.status = "warn"
    else:
        raise ReproError(
            f"series {spec.name!r} has unknown direction {spec.direction!r}"
        )
    if check.status != "ok":
        if spec.direction == "lower":
            moved = f"grew to {check.ratio:.2f}x"
        else:
            fraction = (1.0 / check.ratio) if math.isfinite(check.ratio) else 0.0
            moved = f"fell to {fraction:.2f}x"
        check.note = (f"{moved} of baseline {median:.4g} "
                      f"(MAD {mad:.4g}, n={len(history)})")
    return check


def series_values(root: Path, spec: SeriesSpec) -> "list[float] | None":
    """The trajectory values for *spec* under *root*, oldest first;
    None when the trajectory file is absent."""
    path = root / spec.file
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise ReproError(f"trajectory {path} is not JSON: {error}")
    values = []
    for entry in payload.get("entries", []):
        raw = entry.get(spec.field)
        if isinstance(raw, (int, float)):
            values.append(float(raw))
    return values


def repo_root() -> Path:
    """The checkout root (where the BENCH_*.json trajectories live)."""
    return Path(__file__).resolve().parents[3]


def check_trajectories(
    root: "str | Path | None" = None,
    specs: Iterable[SeriesSpec] = TRACKED_SERIES,
    window: int = DEFAULT_WINDOW,
) -> list[SeriesCheck]:
    """Classify the newest entry of every tracked trajectory series."""
    base = Path(root) if root is not None else repo_root()
    checks = []
    for spec in specs:
        values = series_values(base, spec)
        if values is None:
            checks.append(SeriesCheck(
                series=spec.name, file=spec.file, status="missing",
                direction=spec.direction,
                note=f"{spec.file} not found under {base}"))
            continue
        if not values:
            checks.append(SeriesCheck(
                series=spec.name, file=spec.file, status="missing",
                direction=spec.direction,
                note=f"{spec.file} has no {spec.field!r} entries"))
            continue
        history = values[:-1][-window:]
        checks.append(classify(history, values[-1], spec))
    return checks


def check_reports(candidate: dict, baseline: dict,
                  warn_ratio: float = 1.25,
                  regress_ratio: float = 1.5) -> list[SeriesCheck]:
    """Compare two ``{kernel: KernelReport}`` mappings (from
    :func:`~repro.harness.runner.load_reports`): wall seconds (lower is
    better) and IPC when both sides measured it (higher is better)."""
    checks = []
    for kernel in sorted(set(candidate) & set(baseline)):
        new, old = candidate[kernel], baseline[kernel]
        if new.error or old.error:
            checks.append(SeriesCheck(
                series=f"report.{kernel}.wall_seconds", file="reports",
                status="missing", note="errored report on one side"))
            continue
        wall = SeriesSpec(f"report.{kernel}.wall_seconds", "reports",
                          "wall_seconds", "lower", warn_ratio, regress_ratio)
        checks.append(classify([old.wall_seconds], new.wall_seconds, wall))
        if new.ipc and old.ipc:
            ipc = SeriesSpec(f"report.{kernel}.ipc", "reports", "ipc",
                             "higher", warn_ratio, regress_ratio)
            checks.append(classify([old.ipc], new.ipc, ipc))
    missing = sorted(set(baseline) - set(candidate))
    for kernel in missing:
        checks.append(SeriesCheck(
            series=f"report.{kernel}.wall_seconds", file="reports",
            status="missing", note="kernel absent from candidate reports"))
    return checks


def overall_status(checks: Iterable[SeriesCheck]) -> str:
    """The worst per-series status: ok < warn < regress."""
    worst = "ok"
    for check in checks:
        if _SEVERITY.get(check.status, 0) > _SEVERITY[worst]:
            worst = "warn" if _SEVERITY[check.status] == 1 else "regress"
    return worst


def write_check(checks: Sequence[SeriesCheck], path: "str | Path",
                metadata: "dict | None" = None) -> Path:
    """Serialize the sentinel verdict to *path* (obs_check.json)."""
    payload = {
        "schema": CHECK_SCHEMA,
        "status": overall_status(checks),
        "checks": [_jsonable(asdict(check)) for check in checks],
    }
    if metadata:
        payload["metadata"] = metadata
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return out


def _jsonable(payload: dict) -> dict:
    return {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
            for k, v in payload.items()}


def render_checks(checks: Sequence[SeriesCheck]) -> str:
    """The human table ``repro obs check`` prints."""
    header = (f"{'series':<42} {'status':<10} {'value':>12} "
              f"{'baseline':>12} {'ratio':>7}  note")
    lines = [header, "-" * len(header)]
    for check in checks:
        value = f"{check.value:.4g}" if check.value is not None else "-"
        base = f"{check.baseline:.4g}" if check.baseline is not None else "-"
        if check.ratio is None:
            ratio = "-"
        elif not math.isfinite(check.ratio):
            ratio = "inf"
        else:
            ratio = f"{check.ratio:.2f}x"
        lines.append(f"{check.series:<42} {check.status:<10} {value:>12} "
                     f"{base:>12} {ratio:>7}  {check.note}")
    lines.append("-" * len(header))
    lines.append(f"overall: {overall_status(checks)}")
    return "\n".join(lines)
