"""Per-phase μarch attribution: TraceMachine counters at span boundaries.

The paper builds Fig. 6 from VTune *regions* — top-down slots attributed
to named code ranges, not whole binaries.  Our analog: a
:class:`PhaseAttributor` registered as a tracer listener snapshots the
:class:`~repro.uarch.machine.TraceMachine` counters at every span enter
and exit, and attributes each inter-boundary counter delta to the
*innermost* open span (exclusive attribution).  Counters seen outside
every span accumulate under :data:`UNTRACED`, so the per-phase counts
always sum exactly to the whole-run :class:`MachineSummary` — the
invariant the obs tests assert.

Each phase's accumulated delta is itself a :class:`MachineSummary`, so
the existing top-down / MPKI / instruction-mix analyses apply per phase
unchanged.

Attribution assumes the probe event stream is single-threaded (as every
kernel in the suite is); spans from other threads would interleave
boundaries nondeterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uarch.branch import BranchStats
from repro.uarch.cache import CacheConfig
from repro.uarch.events import OpClass
from repro.uarch.machine import MachineSummary, TraceMachine
from repro.uarch.topdown import analyze

#: Phase key for counters recorded outside any open span.
UNTRACED = "(untraced)"


@dataclass(frozen=True)
class _Snapshot:
    """All TraceMachine counters at one instant."""

    op_counts: tuple[int, ...]
    load_levels: tuple[int, ...]
    store_levels: tuple[int, ...]
    branches: int
    mispredictions: int
    taken: int
    dependent_latency_cycles: float
    l1_misses: int
    l2_misses: int
    l3_misses: int


_OPS = tuple(OpClass)
_LEVELS = (1, 2, 3, 4)


def snapshot(machine: TraceMachine) -> _Snapshot:
    """Freeze *machine*'s counters (cheap: tuples of ints).

    Replays the machine's pending event streams first, so events queued
    before a span boundary are charged to the span that emitted them.
    """
    machine.flush()
    stats = machine.predictor.stats
    return _Snapshot(
        op_counts=tuple(machine.op_counts[op] for op in _OPS),
        load_levels=tuple(machine.load_levels[level] for level in _LEVELS),
        store_levels=tuple(machine.store_levels[level] for level in _LEVELS),
        branches=stats.branches,
        mispredictions=stats.mispredictions,
        taken=stats.taken,
        dependent_latency_cycles=machine.dependent_latency_cycles,
        l1_misses=machine.cache.l1.misses,
        l2_misses=machine.cache.l2.misses,
        l3_misses=machine.cache.l3.misses,
    )


@dataclass
class PhaseCounters:
    """Accumulated counter deltas for one phase."""

    op_counts: list[int] = field(default_factory=lambda: [0] * len(_OPS))
    load_levels: list[int] = field(default_factory=lambda: [0] * 4)
    store_levels: list[int] = field(default_factory=lambda: [0] * 4)
    branches: int = 0
    mispredictions: int = 0
    taken: int = 0
    dependent_latency_cycles: float = 0.0
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0

    def add(self, before: _Snapshot, after: _Snapshot) -> None:
        for index in range(len(_OPS)):
            self.op_counts[index] += after.op_counts[index] - before.op_counts[index]
        for index in range(4):
            self.load_levels[index] += (
                after.load_levels[index] - before.load_levels[index]
            )
            self.store_levels[index] += (
                after.store_levels[index] - before.store_levels[index]
            )
        self.branches += after.branches - before.branches
        self.mispredictions += after.mispredictions - before.mispredictions
        self.taken += after.taken - before.taken
        self.dependent_latency_cycles += (
            after.dependent_latency_cycles - before.dependent_latency_cycles
        )
        self.l1_misses += after.l1_misses - before.l1_misses
        self.l2_misses += after.l2_misses - before.l2_misses
        self.l3_misses += after.l3_misses - before.l3_misses

    @property
    def instructions(self) -> int:
        return sum(self.op_counts)

    def summary(self, cache_config: CacheConfig) -> MachineSummary:
        """This phase's deltas as a MachineSummary, so top-down / MPKI /
        instruction-mix apply to the phase exactly as to a whole run."""
        return MachineSummary(
            op_counts={op: self.op_counts[i] for i, op in enumerate(_OPS)},
            load_level_counts={lvl: self.load_levels[i]
                               for i, lvl in enumerate(_LEVELS)},
            store_level_counts={lvl: self.store_levels[i]
                                for i, lvl in enumerate(_LEVELS)},
            branch_stats=BranchStats(
                branches=self.branches,
                mispredictions=self.mispredictions,
                taken=self.taken,
            ),
            dependent_latency_cycles=self.dependent_latency_cycles,
            cache_config=cache_config,
            l1_misses=self.l1_misses,
            l2_misses=self.l2_misses,
            l3_misses=self.l3_misses,
        )


class PhaseAttributor:
    """Tracer listener splitting a TraceMachine's counters across spans.

    Register on a tracer (``tracer.listeners.append(attributor)``) for
    the duration of an instrumented run, then call :meth:`finish` to
    flush the tail and :meth:`report` for the per-phase analyses.
    Phases are keyed by span *name* — repeated spans (one per loop
    iteration, say) aggregate into one labeled series.
    """

    def __init__(self, machine: TraceMachine) -> None:
        self.machine = machine
        self.phases: dict[str, PhaseCounters] = {}
        self._stack: list[str] = []
        self._last = snapshot(machine)

    def _flush(self) -> None:
        now = snapshot(self.machine)
        key = self._stack[-1] if self._stack else UNTRACED
        counters = self.phases.get(key)
        if counters is None:
            counters = self.phases[key] = PhaseCounters()
        counters.add(self._last, now)
        self._last = now

    def on_enter(self, span) -> None:
        self._flush()
        self._stack.append(span.name)

    def on_exit(self, span) -> None:
        self._flush()
        while self._stack and self._stack.pop() != span.name:
            pass

    def finish(self) -> None:
        """Attribute any counters seen since the last span boundary."""
        self._flush()

    def report(self, cache_config: CacheConfig) -> dict[str, dict]:
        """Per-phase analysis dicts, JSON-ready, largest phase first.

        Zero-instruction phases are dropped; the remaining per-phase
        ``instructions`` sum exactly to the whole run's total.
        """
        out: dict[str, dict] = {}
        ordered = sorted(self.phases.items(),
                         key=lambda item: -item[1].instructions)
        for name, counters in ordered:
            if counters.instructions == 0:
                continue
            summary = counters.summary(cache_config)
            topdown = analyze(summary)
            out[name] = {
                "instructions": summary.instructions,
                "ipc": topdown.ipc,
                "topdown": topdown.as_dict(),
                "mpki": summary.mpki(),
                "instruction_mix": summary.instruction_mix(),
                "branch_misprediction_rate":
                    summary.branch_stats.misprediction_rate,
            }
        return out
