"""Per-phase μarch attribution: TraceMachine counters at span boundaries.

The paper builds Fig. 6 from VTune *regions* — top-down slots attributed
to named code ranges, not whole binaries.  Our analog: a
:class:`PhaseAttributor` registered as a tracer listener takes the
:class:`~repro.uarch.machine.TraceMachine`'s summary at every span enter
and exit, and attributes each inter-boundary difference to the
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

from repro.uarch.machine import MachineSummary, TraceMachine
from repro.uarch.topdown import analyze

#: Phase key for counters recorded outside any open span.
UNTRACED = "(untraced)"


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
        self.phases: dict[str, MachineSummary] = {}
        self._stack: list[str] = []
        self._last = machine.summary()

    def _flush(self) -> None:
        # summary() replays the pending event streams first, so events
        # queued before a span boundary are charged to the span that
        # emitted them.
        now = self.machine.summary()
        key = self._stack[-1] if self._stack else UNTRACED
        delta = now - self._last
        phase = self.phases.get(key)
        self.phases[key] = delta if phase is None else phase + delta
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

    def report(self) -> dict[str, dict]:
        """Per-phase analysis dicts, JSON-ready, largest phase first.

        Zero-instruction phases are dropped; the remaining per-phase
        ``instructions`` sum exactly to the whole run's total.
        """
        out: dict[str, dict] = {}
        ordered = sorted(self.phases.items(),
                         key=lambda item: -item[1].instructions)
        for name, summary in ordered:
            if summary.instructions == 0:
                continue
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
