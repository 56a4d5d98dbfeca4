"""Per-cell paper-shape gates: fidelity assertions for sweep cells.

The characterization benches assert the paper's figure shapes against
the ``default`` corpus (bench_fig6 and friends) — but a sweep runs
*hundreds* of cells, and scenario growth must not silently break the
shapes the reproduction is anchored to.  Cells a manifest flags
``fidelity = "paper"`` get these gates asserted on every sweep: a
single-kernel distillation of the paper's Figure 6 / Table 6 / Table 7
claims, loose enough to hold across run scales, tight enough that a
broken kernel model (or a corpus that no longer matches the paper's)
fails loudly.

Each :class:`Gate` declares the study whose data it reads, so the sweep
compiler can force those studies onto paper-cell jobs even when the
caller asked for ``timing`` only.

Gates are declared per ``(kernel, backend)``: a shape holds only for
the backend it was measured on (the Figure 6 top-down profiles are the
*vectorized* CPU kernels; the Table 7 SIMT counters are ``gpu`` runs),
so a scalar-oracle or GPU grid point is never judged against a profile
from a different execution variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.backends import GPU, VECTORIZED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import KernelReport


@dataclass(frozen=True)
class Gate:
    """One named shape assertion over a :class:`KernelReport`.

    ``check`` returns ``None`` when the shape holds, else a violation
    message; ``studies`` are the study names whose report fields the
    check reads (the sweep compiler unions them into paper-cell jobs).
    """

    name: str
    studies: tuple[str, ...]
    check: Callable[["KernelReport"], "str | None"]

    def violation(self, report: "KernelReport") -> "str | None":
        message = self.check(report)
        return None if message is None else f"{self.name}: {message}"


def _completed(report: "KernelReport") -> "str | None":
    if report.error is not None:
        return f"kernel failed: {report.error}"
    if report.inputs_processed <= 0:
        return "kernel processed no inputs"
    return None


def _topdown_gate(slot_check: Callable[[dict], "str | None"]):
    def check(report: "KernelReport") -> "str | None":
        if not report.topdown:
            return "no top-down data (topdown study missing from report)"
        return slot_check(report.topdown)

    return check


def _tc_retires(topdown: dict) -> "str | None":
    if topdown["retiring"] < 0.5:
        return (f"retiring {topdown['retiring']:.3f} < 0.5 — TC should "
                "retire the most of any kernel (paper Fig. 6)")
    return None


def _gbwt_not_memory_bound(topdown: dict) -> "str | None":
    if topdown["memory_bound"] >= 0.15:
        return (f"memory_bound {topdown['memory_bound']:.3f} >= 0.15 — "
                "GBWT is NOT memory bound (the paper's surprise)")
    return None


def _gssw_core_memory(topdown: dict) -> "str | None":
    if topdown["core_bound"] <= 0.25:
        return f"core_bound {topdown['core_bound']:.3f} <= 0.25"
    if topdown["memory_bound"] <= 0.05:
        return f"memory_bound {topdown['memory_bound']:.3f} <= 0.05"
    return None


def _gbv_bad_speculation(topdown: dict) -> "str | None":
    if topdown["bad_speculation"] <= 0.15:
        return (f"bad_speculation {topdown['bad_speculation']:.3f} <= 0.15 "
                "— GBV's branchy bit-scan should mispredict heavily")
    return None


def _pgsgd_memory_core(topdown: dict) -> "str | None":
    bound = topdown["memory_bound"] + topdown["core_bound"]
    if bound <= 0.6:
        return f"memory+core bound {bound:.3f} <= 0.6"
    return None


def _gwfa_core_bound(topdown: dict) -> "str | None":
    if topdown["core_bound"] <= 0.2:
        return f"core_bound {topdown['core_bound']:.3f} <= 0.2"
    return None


def _gpu_profile_gate(expected_occupancy: float, label: str, why: str):
    """A Table 7-style SIMT sanity shape: theoretical occupancy pinned
    at the register-pressure value (*label* is its display form, e.g.
    ``1/3``), achieved within (0, theoretical], positive kernel time."""

    def check(report: "KernelReport") -> "str | None":
        gpu = report.gpu
        if not gpu:
            return "no GPU counters (gpu study missing from report)"
        occupancy = gpu.get("theoretical_occupancy", 0.0)
        if abs(occupancy - expected_occupancy) > 0.01:
            return (f"theoretical occupancy {occupancy:.3f} != "
                    f"{label} ({why})")
        achieved = gpu.get("achieved_occupancy", 0.0)
        if not 0.0 < achieved <= occupancy + 1e-9:
            return (f"achieved occupancy {achieved:.3f} outside "
                    "(0, theoretical]")
        if gpu.get("gpu_time_ms", 0.0) <= 0.0:
            return "gpu_time_ms is not positive"
        return None

    return check


_tsu_gpu_profile = _gpu_profile_gate(
    1 / 3, "1/3", "paper Table 7: TSU's register pressure caps occupancy")

#: PGSGD-GPU: 44 registers/thread at block size 1024 leave one resident
#: block per SM on the A6000 — 32 of 48 warp slots, occupancy 2/3
#: (the kernel is latency- not occupancy-limited).
_pgsgd_gpu_profile = _gpu_profile_gate(
    2 / 3, "2/3", "44 regs/thread @ block 1024: one block/SM, 32/48 warps")


#: The gate every kernel passes through, even ones without a
#: kernel-specific shape.
COMPLETION_GATE = Gate("completed", (), _completed)

#: (kernel name, backend) -> the paper-shape gates measured on that
#: backend (beyond completion).  The Figure 6 top-down shapes apply to
#: the vectorized CPU kernels; the SIMT-counter shapes to gpu runs.
GATES: dict[tuple[str, str], tuple[Gate, ...]] = {
    ("tc", VECTORIZED): (Gate("tc-retiring-dominant", ("topdown",),
                              _topdown_gate(_tc_retires)),),
    ("gbwt", VECTORIZED): (Gate("gbwt-not-memory-bound", ("topdown",),
                                _topdown_gate(_gbwt_not_memory_bound)),),
    ("gssw", VECTORIZED): (Gate("gssw-core-and-memory", ("topdown",),
                                _topdown_gate(_gssw_core_memory)),),
    ("gbv", VECTORIZED): (Gate("gbv-bad-speculation", ("topdown",),
                               _topdown_gate(_gbv_bad_speculation)),),
    ("pgsgd", VECTORIZED): (Gate("pgsgd-memory-core-bound", ("topdown",),
                                 _topdown_gate(_pgsgd_memory_core)),),
    ("pgsgd", GPU): (Gate("pgsgd-gpu-profile", ("gpu",),
                          _pgsgd_gpu_profile),),
    ("gwfa-lr", VECTORIZED): (Gate("gwfa-lr-core-bound", ("topdown",),
                                   _topdown_gate(_gwfa_core_bound)),),
    ("gwfa-cr", VECTORIZED): (Gate("gwfa-cr-core-bound", ("topdown",),
                                   _topdown_gate(_gwfa_core_bound)),),
    ("tsu", GPU): (Gate("tsu-gpu-profile", ("gpu",), _tsu_gpu_profile),),
}


def _resolved(kernel: str, backend: "str | None") -> str:
    from repro.kernels.base import resolve_backend

    try:
        return resolve_backend(kernel, backend or None)
    except Exception:  # unknown kernel: no backend-specific gates apply
        return backend or ""


def kernel_gates(kernel: str, backend: "str | None" = None) -> tuple[Gate, ...]:
    """Every gate a paper cell asserts for *kernel* on *backend*
    (``None``: the kernel's default backend)."""
    return (COMPLETION_GATE,) + GATES.get((kernel, _resolved(kernel, backend)), ())


def gate_studies(kernel: str, backend: "str | None" = None) -> tuple[str, ...]:
    """Studies the paper gates for *kernel* need, in a stable order."""
    studies: list[str] = []
    for gate in kernel_gates(kernel, backend):
        for study in gate.studies:
            if study not in studies:
                studies.append(study)
    return tuple(studies)


def check_paper_gates(report: "KernelReport") -> tuple[str, ...]:
    """All gate violations for *report* (empty means the shapes hold).

    The gates consulted are the ones measured on ``report.backend`` —
    a report from a different backend is only held to completion.
    """
    violations = []
    for gate in kernel_gates(report.kernel, report.backend or None):
        message = gate.violation(report)
        if message is not None:
            violations.append(message)
    return tuple(violations)
