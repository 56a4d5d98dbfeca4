"""The paper's characterization claims, each defined once.

A ``holds`` claim fails when its comparison is false; a ``known-deviation:
<reason>`` claim fails when its comparison turns *true*, so a fixed
deviation is promoted, not forgotten.  Sweeps evaluate the table over each
(cell, scale, seed) group of a paper cell (:func:`evaluate`); the
characterization benches assert their figure's rows through
``benchmarks/_common.assert_claims``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

from repro.harness.runner import KernelReport
from repro.kernels import CPU_KERNELS, GPU, VECTORIZED, resolve_backend

Reports = Mapping[str, KernelReport]

HOLDS = "holds"
_GWFA = ("known-deviation: the model attributes GWFA's non-retiring share to "
         "extend-exit mispredictions, not backend dependency pressure "
         "(EXPERIMENTS.md, Figure 6)")

#: study -> (the report field it fills, what a failure calls it when empty)
_STUDY_DATA = {"topdown": ("topdown", "top-down data"),
               "cache": ("mpki", "cache MPKI"), "gpu": ("gpu", "GPU counters"),
               "instmix": ("instruction_mix", "instruction mix")}
_COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge,
            "in": lambda value, bound: bound[0] < value < bound[1]}


@dataclass(frozen=True)
class Claim:
    """One row: its figure or table, the kernels it reads on *backend*, the
    studies it needs, and ``value(reports) <op> bound`` (``op`` is ``<``,
    ``>``, ``>=``, or ``in`` the open interval ``bound = (low, high)``),
    displayed as *metric*."""

    id: str
    source: str
    kernels: tuple[str, ...]
    metric: str
    value: Callable[[Reports], float]
    op: str
    bound: "float | tuple[float, float]"
    studies: tuple[str, ...] = ("topdown",)
    backend: str = VECTORIZED
    status: str = HOLDS

    def failure(self, reports: Reports) -> "str | None":
        """The failure message over *reports*, or ``None``; a named kernel
        without a report on the backend, or without study data, fails."""
        for kernel in self.kernels:
            report = reports.get(kernel)
            if report is None or _backend(report) != self.backend:
                return f"{self.id}: no {kernel} report on {self.backend}"
            for study in self.studies:
                field, data = _STUDY_DATA[study]
                if not getattr(report, field):
                    return (f"{self.id}: no {data} for {kernel} "
                            f"({study} study missing from report)")
        value = self.value({name: reports[name] for name in self.kernels})
        holds = _COMPARE[self.op](value, self.bound)
        if holds == (self.status == HOLDS):
            return None
        measured = f"{self.id} ({self.source}): {self.metric} = {value:.3f}"
        if holds:
            return (f"{measured} now holds ({self.op} {self.bound}); "
                    "promote this known deviation to holds")
        return f"{measured}, want {self.op} {self.bound}"


def _field(source: str, study: str, claim_id: str, kernel: str, keys: str,
           op: str, bound, status: str = HOLDS) -> Claim:
    """A claim on the sum of *keys* (``"a+b"``) of *kernel*'s *study*
    data, measured on the GPU backend for ``gpu`` counters."""
    field = _STUDY_DATA[study][0]
    return Claim(
        claim_id, source, (kernel,), f"{kernel} {keys}",
        lambda r: sum(getattr(r[kernel], field).get(key, 0.0)
                      for key in keys.split("+")),
        op, bound, (study,), GPU if study == "gpu" else VECTORIZED, status)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / max(denominator, 1e-6)


def _gpu_profile(source: str, kernel: str, occupancy: float,
                 label: str) -> tuple[Claim, ...]:
    """Theoretical occupancy pinned at *occupancy* (displayed as *label*),
    achieved occupancy within (0, theoretical], positive kernel time."""
    def gpu(key):
        return lambda r: r[kernel].gpu.get(key, 0.0)

    theoretical, achieved = (gpu("theoretical_occupancy"),
                             gpu("achieved_occupancy"))
    return tuple(
        Claim(f"{kernel}-{name}", source, (kernel,), f"{kernel} {metric}",
              value, op, bound, ("gpu",), GPU)
        for name, metric, value, op, bound in (
            ("theoretical-occupancy", f"|theoretical_occupancy - {label}|",
             lambda r: abs(theoretical(r) - occupancy), "<", 0.01),
            ("achieved-occupancy", "achieved / theoretical occupancy",
             lambda r: _ratio(achieved(r), theoretical(r)), "in",
             (0.0, 1 + 1e-9)),
            ("gpu-time", "gpu_time_ms", gpu("gpu_time_ms"), ">", 0.0)))


#: Every paper-shape claim, in figure order.
CLAIMS: tuple[Claim, ...] = (
    # Figure 6: top-down slot fractions of the vectorized CPU kernels.
    Claim("tc-retires-most", "Fig. 6", CPU_KERNELS,
          "tc retiring - max(other retiring)",
          lambda r: r["tc"].topdown["retiring"] - max(
              x.topdown["retiring"] for k, x in r.items() if k != "tc"),
          ">=", 0.0),
    *(_field("Fig. 6", "topdown", *row) for row in (
        ("tc-retiring-dominant", "tc", "retiring", ">=", 0.5),
        ("pgsgd-memory-core-bound", "pgsgd", "memory_bound+core_bound",
         ">", 0.6),
        # The paper's surprise: GBWT is not memory bound.
        ("gbwt-not-memory-bound", "gbwt", "memory_bound", "<", 0.15),
        # GBV's branchy bit-scan mispredicts heavily.
        ("gbv-bad-speculation", "gbv", "bad_speculation", ">", 0.15),
        ("gssw-core-bound", "gssw", "core_bound", ">", 0.25),
        ("gssw-memory-bound", "gssw", "memory_bound", ">", 0.05),
        ("gwfa-lr-core-bound", "gwfa-lr", "core_bound", ">", 0.2, _GWFA),
        ("gwfa-cr-core-bound", "gwfa-cr", "core_bound", ">", 0.2, _GWFA))),
    # Figure 7: PGSGD misses at every level; the DP kernels rarely reach L3.
    _field("Fig. 7", "cache", "pgsgd-l3-misses", "pgsgd", "l3", ">", 5.0),
    _field("Fig. 7", "cache", "pgsgd-l1-misses", "pgsgd", "l1", ">", 1.0),
    *(Claim(f"{kernel}-rare-l3-misses", "Fig. 7", (kernel, "pgsgd"),
            f"{kernel} l3 mpki / pgsgd l3 mpki",
            lambda r, k=kernel: _ratio(r[k].mpki["l3"], r["pgsgd"].mpki["l3"]),
            "<", 0.2, ("cache",))
      for kernel in ("gssw", "gbv", "gwfa-lr")),
    # Figure 8: instruction-mix signatures.
    *(_field("Fig. 8", "instmix", *row) for row in (
        ("gssw-vector-heavy", "gssw", "vector", ">", 0.4),
        ("gwfa-lr-not-vectorized", "gwfa-lr", "vector", "<", 0.05),
        ("gbv-scalar", "gbv", "scalar", ">", 0.7),
        ("pgsgd-sse-fp", "pgsgd", "vector", ">", 0.3),
        ("tc-scalar-memory", "tc", "scalar+memory", ">", 0.9))),
    # Table 6: IPC extremes and GSSW's level.
    Claim("tc-highest-ipc", "Table 6", CPU_KERNELS, "tc ipc - max(other ipc)",
          lambda r: r["tc"].ipc - max(
              x.ipc for k, x in r.items() if k != "tc"), ">", 0.0),
    # Below 0.6 of every other kernel's IPC, so also the lowest.
    Claim("pgsgd-lowest-ipc", "Table 6", CPU_KERNELS,
          "pgsgd ipc / min(other ipc)",
          lambda r: _ratio(r["pgsgd"].ipc, min(
              x.ipc for k, x in r.items() if k != "pgsgd")), "<", 0.6),
    Claim("gssw-ipc", "Table 6", ("gssw",), "gssw ipc",
          lambda r: r["gssw"].ipc, "in", (1.2, 2.4)),
    # Table 7: TSU's register pressure caps occupancy at 1/3.
    *_gpu_profile("Table 7", "tsu", 1 / 3, "1/3"),
    _field("Table 7", "gpu", "tsu-memory-bw", "tsu", "memory_bw_utilization",
           "in", (0.2, 0.6)),
    # Section 5.3: PGSGD-GPU's 44 registers/thread at block size 1024
    # leave one resident block per SM, 32 of 48 warp slots.
    *_gpu_profile("Sec. 5.3", "pgsgd", 2 / 3, "2/3"),
    # Figure 10: GSSW's full-matrix swizzle writes stall on memory ~3x SSW.
    Claim("gssw-memory-vs-ssw", "Fig. 10", ("gssw", "ssw"),
          "gssw memory_bound / ssw memory_bound",
          lambda r: _ratio(r["gssw"].topdown["memory_bound"],
                           r["ssw"].topdown["memory_bound"]), ">", 3.0),
)


def _backend(report: KernelReport) -> str:
    return report.backend or resolve_backend(report.kernel)


def completion_failure(report: KernelReport) -> "str | None":
    """The check every paper-cell report passes, whatever its kernel."""
    if report.error is not None:
        return f"completed: kernel failed: {report.error}"
    if report.inputs_processed <= 0:
        return ("completed: kernel processed no inputs "
                f"({report.inputs_processed})")
    return None


def _covered(points: Collection[tuple[str, str]]) -> list[Claim]:
    return [claim for claim in CLAIMS if all(
        (kernel, claim.backend) in points for kernel in claim.kernels)]


def claim_studies(studies: tuple[str, ...], kernel: str, backend: str,
                  points: Collection[tuple[str, str]]) -> tuple[str, ...]:
    """*studies* plus those *kernel*'s report on *backend* needs for the
    claims whose kernels are all among the ``(kernel, backend)`` *points*."""
    for claim in _covered(points):
        if kernel in claim.kernels and claim.backend == backend:
            studies += tuple(s for s in claim.studies if s not in studies)
    return studies


def evaluate(reports: Sequence[KernelReport]) -> list[tuple[str, ...]]:
    """The failures of each report in one group (a sweep's cell, scale and
    seed), aligned with *reports*: its completion, then each failing claim
    naming it.  A claim is judged only if all its kernels are present."""
    points = [(report.kernel, _backend(report)) for report in reports]
    by_point = dict(zip(points, reports))
    found: dict[tuple[str, str], list[str]] = {point: [] for point in points}
    for claim in _covered(by_point):
        message = claim.failure({kernel: by_point[(kernel, claim.backend)]
                                 for kernel in claim.kernels})
        if message is not None:
            for kernel in claim.kernels:
                found[(kernel, claim.backend)].append(message)
    return [tuple(m for m in (completion_failure(report), *found[point]) if m)
            for report, point in zip(reports, points)]

