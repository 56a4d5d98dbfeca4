"""Semantic event interface between kernels and the CPU model.

The paper characterizes kernels with VTune (top-down, cache misses) and
PIN (instruction mix) on real hardware.  Our kernels instead emit
*semantic events* — typed ALU operations, loads/stores with synthetic
addresses, and branches with outcomes — to a :class:`MachineProbe`.
A :class:`NullProbe` makes instrumentation free for pure timing runs;
:class:`repro.uarch.machine.TraceMachine` consumes the same events to
drive a cache simulator, a branch predictor, and the top-down model.
A :class:`CallLog` keeps a copy of every call it forwards, so one
recorded stream replays into any other probe.

Addresses are synthetic but *structured*: each data structure reserves a
region of a flat address space and kernels report the true index math, so
spatial and temporal locality in the event stream equal the locality of
the real access pattern.
"""

from __future__ import annotations

import copy
from enum import Enum


class OpClass(Enum):
    """Hierarchical instruction classes, binned like the paper's Figure 8.

    The paper bins hierarchically (vector > memory > branch > scalar >
    register, read top-to-bottom/left-to-right of their legend); events
    here carry one class each and the binner applies the same precedence.
    """

    VECTOR_ALU = "vector_alu"        # packed SIMD arithmetic/logic
    VECTOR_FP = "vector_fp"          # SSE/AVX floating point (incl. scalar SSE)
    SCALAR_ALU = "scalar_alu"        # integer add/sub/logic/shift
    SCALAR_MUL_DIV = "scalar_muldiv" # multiplies, divides, sqrt
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    REGISTER = "register"            # register-to-register moves
    NOP = "nop"

    # Members are singletons, so identity hashing is exact; it keeps the
    # per-event ``op_counts[op_class]`` updates off Enum's Python-level
    # ``__hash__``.
    __hash__ = object.__hash__


class MachineProbe:
    """No-op probe; the base class documents the event interface.

    Subclasses override any subset.  All methods must be cheap: kernels
    call them in inner loops.

    Two granularities coexist.  The *scalar* methods (:meth:`load`,
    :meth:`store`, :meth:`branch`, :meth:`alu`) report one event per
    call; the *batched* methods (:meth:`load_block`, :meth:`store_block`,
    :meth:`branch_trace`, :meth:`alu_bulk`) report a whole array of
    events in one call, in stream order.  The base-class batch methods
    fall back to looping over the scalar ones, so a probe that only
    overrides the scalar interface observes exactly the same event
    stream either way; :class:`repro.uarch.machine.TraceMachine`
    overrides the batched methods with vectorized fast paths that are
    bit-identical to the scalar replay.
    """

    __slots__ = ()

    def alu(self, op_class: OpClass, count: int = 1, dependent: bool = False) -> None:
        """*count* arithmetic/logic operations of *op_class*.

        ``dependent=True`` marks operations on a loop-carried dependency
        chain (e.g. DP recurrences along the serial axis): the pipeline
        model charges their full latency serially instead of assuming
        they overlap.
        """

    def load(self, address: int, size: int = 8) -> None:
        """A data load of *size* bytes at synthetic *address*."""

    def store(self, address: int, size: int = 8) -> None:
        """A data store of *size* bytes at synthetic *address*."""

    def branch(self, site: int, taken: bool) -> None:
        """A conditional branch at static *site* with its outcome."""

    def branch_run(self, site: int, taken_count: int) -> None:
        """A loop-back branch taken *taken_count* times then not taken.

        Equivalent to ``taken_count`` taken outcomes plus one not-taken,
        but cheap to record: only the boundary outcomes are *simulated*
        (predictors learn the taken direction after a couple of
        iterations), while the bulk of the run is credited through
        :meth:`branch_bulk` so counting probes see every branch — long
        loops must not under-report the instruction-mix and MPKI
        denominators (paper Figure 8 / Figure 7).
        """
        trained = min(taken_count, 3)
        for _ in range(trained):
            self.branch(site, True)
        remaining = taken_count - trained
        if remaining > 0:
            self.branch_bulk(site, remaining)
        self.branch(site, False)

    def branch_bulk(self, site: int, taken_count: int) -> None:
        """*taken_count* additional taken outcomes of a saturated branch.

        Called by :meth:`branch_run` for the iterations past the
        predictor's warm-up.  Counting probes must credit all of them
        (as correctly-predicted taken branches) without simulating each
        outcome; the no-op default keeps pure timing runs free.
        """

    def load_block(self, addresses, size: int = 8) -> None:
        """A batch of data loads, *size* bytes each, in stream order.

        *addresses* is any integer sequence (list or 1-D numpy array).
        Equivalent to ``for a in addresses: self.load(a, size)`` — the
        base class literally loops — but lets recording probes ingest
        the whole array at once.
        """
        for address in addresses:
            self.load(int(address), size)

    def store_block(self, addresses, size: int = 8) -> None:
        """A batch of data stores, *size* bytes each, in stream order."""
        for address in addresses:
            self.store(int(address), size)

    def branch_trace(self, site: int, outcomes) -> None:
        """A batch of outcomes of the conditional branch at *site*.

        *outcomes* is any boolean sequence (list or 1-D numpy array), in
        stream order.  Equivalent to ``for t in outcomes:
        self.branch(site, t)``.
        """
        for taken in outcomes:
            self.branch(site, bool(taken))

    def alu_bulk(
        self, op_class: OpClass, count: int, dependent_count: int = 0
    ) -> None:
        """*count* operations of *op_class*, of which *dependent_count*
        (<= count) sit on a loop-carried dependency chain.

        Equivalent to one ``alu(..., dependent=True)`` call for the
        dependent portion plus one plain ``alu`` call for the rest.
        """
        if dependent_count:
            self.alu(op_class, dependent_count, dependent=True)
        remaining = count - dependent_count
        if remaining > 0:
            self.alu(op_class, remaining)

    def touch_region(self, address: int, size: int, stride: int = 64) -> None:
        """Sequential loads over [address, address+size) at *stride*."""
        for offset in range(0, size, stride):
            self.load(address + offset, min(stride, size - offset))


class NullProbe(MachineProbe):
    """Do-nothing probe with O(1) batch methods.

    The base class's batch fallbacks loop over the scalar methods so
    counting probes stay correct; for pure timing runs that loop is
    itself overhead, so the shared :data:`NULL_PROBE` overrides every
    entry point with a true no-op.
    """

    __slots__ = ()

    def load_block(self, addresses, size: int = 8) -> None:
        """Ignore a load batch."""

    def store_block(self, addresses, size: int = 8) -> None:
        """Ignore a store batch."""

    def branch_trace(self, site: int, outcomes) -> None:
        """Ignore a branch-outcome batch."""

    def alu_bulk(
        self, op_class: OpClass, count: int, dependent_count: int = 0
    ) -> None:
        """Ignore an ALU batch."""

    def branch_run(self, site: int, taken_count: int) -> None:
        """Ignore a loop-back branch run."""

    def touch_region(self, address: int, size: int, stride: int = 64) -> None:
        """Ignore a region touch."""


#: Shared do-nothing probe for pure timing runs.
NULL_PROBE = NullProbe()

#: Every ``MachineProbe`` entry point a kernel may call.
PROBE_METHODS = tuple(name for name, value in vars(MachineProbe).items()
                      if callable(value) and not name.startswith("_"))


class CallLog(MachineProbe):
    """Forwards every call to *target* and keeps a private copy of it.

    Arguments are deep-copied when the call is made, so a kernel that
    reuses a buffer after passing it cannot change the log; the live
    *target* sees the caller's own objects.  ``calls`` holds one
    ``(method, args, kwargs)`` entry per call, in order.
    """

    def __init__(self, target: MachineProbe) -> None:
        self.target = target
        self.calls: list[tuple[str, tuple, dict]] = []

    def replay(self, probe: MachineProbe) -> None:
        """Make the logged calls again, in order, on *probe*."""
        for method, args, kwargs in self.calls:
            getattr(probe, method)(*args, **kwargs)


def _logged(method: str):
    def call(self, *args, **kwargs):
        self.calls.append(
            (method, copy.deepcopy(args), copy.deepcopy(kwargs)))
        getattr(self.target, method)(*args, **kwargs)
    call.__name__ = method
    return call


for _method in PROBE_METHODS:
    setattr(CallLog, _method, _logged(_method))


class AddressSpace:
    """Allocates disjoint synthetic address regions for data structures.

    Regions are aligned to 4 KiB pages so distinct structures never share
    cache lines, mirroring separate heap allocations.
    """

    PAGE = 4096

    def __init__(self, base: int = 1 << 20) -> None:
        self._next = base

    def alloc(self, size: int) -> int:
        """Reserve *size* bytes; returns the region's base address."""
        if size < 0:
            raise ValueError("size must be non-negative")
        base = self._next
        pages = (size + self.PAGE - 1) // self.PAGE
        self._next += max(1, pages) * self.PAGE
        return base
