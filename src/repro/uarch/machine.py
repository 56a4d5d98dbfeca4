"""TraceMachine: the recording probe that drives the CPU model.

Plugs into any kernel's ``probe`` parameter; every semantic event updates
instruction-mix counters, feeds the cache hierarchy, or trains the branch
predictor.  :meth:`TraceMachine.summary` freezes the run into a
:class:`MachineSummary`, the input to the top-down model and the MPKI /
instruction-mix reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.uarch.branch import BRANCH_BATCH_CUTOFF, BranchStats, GsharePredictor
from repro.uarch.cache import (
    BATCH_CUTOFF,
    MACHINE_B,
    REPLAY_BOUND,
    CacheConfig,
    CacheHierarchy,
)
from repro.uarch.events import MachineProbe, OpClass

#: Result latency (cycles) per operation class, charged serially for
#: dependent (loop-carried) operations.
OP_LATENCY: dict[OpClass, float] = {
    OpClass.VECTOR_ALU: 1.0,
    OpClass.VECTOR_FP: 4.0,
    OpClass.SCALAR_ALU: 1.0,
    OpClass.SCALAR_MUL_DIV: 18.0,
    OpClass.LOAD: 4.0,
    OpClass.STORE: 1.0,
    OpClass.BRANCH: 1.0,
    OpClass.REGISTER: 0.5,
    OpClass.NOP: 0.0,
}


@dataclass(frozen=True)
class MachineSummary:
    """Frozen view of one instrumented run.

    Summaries add and subtract counter by counter, so the counters a
    stretch of the run added are the difference of the summaries taken
    at its two ends (the per-phase attribution in :mod:`repro.obs`).
    """

    op_counts: dict[OpClass, int]
    load_level_counts: dict[int, int]   # 1=L1 .. 4=memory (loads)
    store_level_counts: dict[int, int]  # same, for stores
    branch_stats: BranchStats
    dependent_latency_cycles: float
    cache_config: CacheConfig
    l1_misses: int
    l2_misses: int
    l3_misses: int

    def __add__(self, other: MachineSummary) -> MachineSummary:
        return self._counterwise(other, operator.add)

    def __sub__(self, other: MachineSummary) -> MachineSummary:
        return self._counterwise(other, operator.sub)

    def _counterwise(self, other: MachineSummary, op) -> MachineSummary:
        """Apply *op* to every pair of counters; the cache config is
        this summary's (a phase delta runs on the machine it came from)."""

        def each(mine: dict, theirs: dict) -> dict:
            return {key: op(mine.get(key, 0), theirs.get(key, 0))
                    for key in {**mine, **theirs}}

        return MachineSummary(
            op_counts=each(self.op_counts, other.op_counts),
            load_level_counts=each(self.load_level_counts,
                                   other.load_level_counts),
            store_level_counts=each(self.store_level_counts,
                                    other.store_level_counts),
            branch_stats=BranchStats(**each(vars(self.branch_stats),
                                            vars(other.branch_stats))),
            dependent_latency_cycles=op(self.dependent_latency_cycles,
                                        other.dependent_latency_cycles),
            cache_config=self.cache_config,
            l1_misses=op(self.l1_misses, other.l1_misses),
            l2_misses=op(self.l2_misses, other.l2_misses),
            l3_misses=op(self.l3_misses, other.l3_misses),
        )

    @property
    def instructions(self) -> int:
        return sum(self.op_counts.values())

    @property
    def loads(self) -> int:
        return self.op_counts.get(OpClass.LOAD, 0)

    @property
    def stores(self) -> int:
        return self.op_counts.get(OpClass.STORE, 0)

    def mpki(self) -> dict[str, float]:
        """Exclusive misses per kilo-instruction (paper Figure 7)."""
        instructions = self.instructions
        if instructions == 0:
            raise SimulationError("no instructions recorded")
        scale = 1000.0 / instructions
        return {
            "l1": (self.l1_misses - self.l2_misses) * scale,
            "l2": (self.l2_misses - self.l3_misses) * scale,
            "l3": self.l3_misses * scale,
        }

    def instruction_mix(self) -> dict[str, float]:
        """Fractional instruction mix with the paper's hierarchical bins
        (Figure 8): vector > memory > branch > scalar > register."""
        instructions = self.instructions
        if instructions == 0:
            raise SimulationError("no instructions recorded")
        vector = (
            self.op_counts.get(OpClass.VECTOR_ALU, 0)
            + self.op_counts.get(OpClass.VECTOR_FP, 0)
        )
        memory = self.loads + self.stores
        branch = self.op_counts.get(OpClass.BRANCH, 0)
        scalar = (
            self.op_counts.get(OpClass.SCALAR_ALU, 0)
            + self.op_counts.get(OpClass.SCALAR_MUL_DIV, 0)
        )
        register = self.op_counts.get(OpClass.REGISTER, 0) + self.op_counts.get(
            OpClass.NOP, 0
        )
        return {
            "vector": vector / instructions,
            "memory": memory / instructions,
            "branch": branch / instructions,
            "scalar": scalar / instructions,
            "register": register / instructions,
        }


class TraceMachine(MachineProbe):
    """Recording probe: cache + branch predictor + instruction counters.

    Memory and branch events replay lazily.  A ``load_block`` /
    ``store_block`` or ``branch_trace`` call below its batch cutoff only
    queues its events (and their load, store or branch counts) on that
    stream's pending list.  The list replays as one batch -- one line
    stream through :meth:`CacheHierarchy.access_block`, one multi-site
    gshare scan -- when a block at or above the cutoff arrives, when a
    scalar event of the same stream arrives, when
    :data:`~repro.uarch.cache.REPLAY_BOUND` events are pending, or on
    :meth:`flush` (which :meth:`summary` and the per-phase attribution
    call).  Cache state never depends on branches and predictor state
    never on memory, so each stream flushes only on its own triggers,
    and every replay is bit-identical to the per-event one.  Scalar
    events stay eager.
    """

    def __init__(self, cache_config: CacheConfig = MACHINE_B) -> None:
        self.cache_config = cache_config
        self.cache = CacheHierarchy(cache_config)
        self.predictor = GsharePredictor()
        self.op_counts: dict[OpClass, int] = {op: 0 for op in OpClass}
        self.load_levels = {1: 0, 2: 0, 3: 0, 4: 0}
        self.store_levels = {1: 0, 2: 0, 3: 0, 4: 0}
        self.dependent_latency_cycles = 0.0
        # Pending streams: (addresses, size, is_store) and (outcomes, site).
        self._memory: list[tuple[np.ndarray, int, bool]] = []
        self._memory_events = 0
        self._branches: list[tuple[np.ndarray, int]] = []
        self._branch_events = 0

    def alu(self, op_class: OpClass, count: int = 1, dependent: bool = False) -> None:
        self.op_counts[op_class] += count
        if dependent:
            self.dependent_latency_cycles += count * OP_LATENCY[op_class]

    def load(self, address: int, size: int = 8) -> None:
        if self._memory:
            self._flush_memory()
        self.op_counts[OpClass.LOAD] += 1
        level = self.cache.access(address, size)
        self.load_levels[level] += 1

    def store(self, address: int, size: int = 8) -> None:
        if self._memory:
            self._flush_memory()
        self.op_counts[OpClass.STORE] += 1
        level = self.cache.access(address, size)
        self.store_levels[level] += 1

    def branch(self, site: int, taken: bool) -> None:
        if self._branches:
            self._flush_branches()
        self.op_counts[OpClass.BRANCH] += 1
        self.predictor.predict_and_update(site, taken)

    def load_block(self, addresses, size: int = 8) -> None:
        self._queue_memory(addresses, size, False)

    def store_block(self, addresses, size: int = 8) -> None:
        self._queue_memory(addresses, size, True)

    def branch_trace(self, site: int, outcomes) -> None:
        n = len(outcomes)
        if n >= BRANCH_BATCH_CUTOFF:
            self._flush_branches()
            self._replay_branches(outcomes, site)
        elif n:
            # A private bool copy: the replay runs after the caller moves
            # on, and truthy non-bool outcomes count as taken, as per
            # event (an int buffer would turn the whole queue into ints).
            self._branches.append((np.array(outcomes, dtype=bool), site))
            self._branch_events += n
            if self._branch_events >= REPLAY_BOUND:
                self._flush_branches()

    def alu_bulk(
        self, op_class: OpClass, count: int, dependent_count: int = 0
    ) -> None:
        self.op_counts[op_class] += count
        if dependent_count:
            self.dependent_latency_cycles += dependent_count * OP_LATENCY[op_class]

    def touch_region(self, address: int, size: int, stride: int = 64) -> None:
        full = size // stride
        if full:
            self.load_block(address + stride * np.arange(full, dtype=np.int64), stride)
        tail = size - full * stride
        if tail > 0:
            self.load_block((address + full * stride,), tail)

    def branch_bulk(self, site: int, taken_count: int) -> None:
        """Credit the saturated iterations of a loop-back branch run: a
        trained predictor gets the remaining taken outcomes right, so
        they count as correctly-predicted branches without per-outcome
        simulation."""
        self.op_counts[OpClass.BRANCH] += taken_count
        self.predictor.stats.branches += taken_count
        self.predictor.stats.taken += taken_count

    def flush(self) -> None:
        """Replay both pending streams, so the cache, the predictor and
        the level counters reflect every event recorded so far."""
        self._flush_memory()
        self._flush_branches()

    def _queue_memory(self, addresses, size: int, is_store: bool) -> None:
        n = len(addresses)
        if n >= BATCH_CUTOFF:
            self._flush_memory()
            self._replay_memory(np.asarray(addresses, dtype=np.int64),
                                size, is_store)
        elif n:
            # A private copy: the replay reads it after the caller moves on.
            self._memory.append(
                (np.array(addresses, dtype=np.int64), size, is_store))
            self._memory_events += n
            if self._memory_events >= REPLAY_BOUND:
                self._flush_memory()

    def _flush_memory(self) -> None:
        if self._memory:
            stream = _drain(self._memory)
            self._memory = []
            self._memory_events = 0
            self._replay_memory(*stream)

    def _replay_memory(self, addresses: np.ndarray, sizes, stores) -> None:
        """Resolve one memory stream; *sizes* and the *stores* tag are
        scalars or per-access arrays."""
        levels = self.cache.access_block(addresses, sizes)
        # Loads count into bins 1-4, stores into bins 6-9.
        counts = np.bincount(levels + 5 * stores, minlength=10).tolist()
        for level in (1, 2, 3, 4):
            self.load_levels[level] += counts[level]
            self.store_levels[level] += counts[level + 5]
        self.op_counts[OpClass.LOAD] += sum(counts[1:5])
        self.op_counts[OpClass.STORE] += sum(counts[6:10])

    def _flush_branches(self) -> None:
        if self._branches:
            stream = _drain(self._branches)
            self._branches = []
            self._branch_events = 0
            self._replay_branches(*stream)

    def _replay_branches(self, outcomes, sites) -> None:
        """Resolve one branch stream; *sites* is a scalar or per-event."""
        self.op_counts[OpClass.BRANCH] += len(outcomes)
        self.predictor.predict_and_update_block(sites, outcomes)

    def summary(self) -> MachineSummary:
        self.flush()
        return MachineSummary(
            op_counts=dict(self.op_counts),
            load_level_counts=dict(self.load_levels),
            store_level_counts=dict(self.store_levels),
            branch_stats=BranchStats(
                branches=self.predictor.stats.branches,
                mispredictions=self.predictor.stats.mispredictions,
                taken=self.predictor.stats.taken,
            ),
            dependent_latency_cycles=self.dependent_latency_cycles,
            cache_config=self.cache_config,
            l1_misses=self.cache.l1.misses,
            l2_misses=self.cache.l2.misses,
            l3_misses=self.cache.l3.misses,
        )


def _drain(pending: list[tuple]) -> tuple:
    """One stream from queued ``(events, *tags)`` entries: the events
    concatenated, each entry's tags repeated once per event."""
    if len(pending) == 1:
        return pending[0]
    lengths = [entry[0].shape[0] for entry in pending]
    events, *tags = zip(*pending)
    return (np.concatenate(events),
            *(np.repeat(tag, lengths) for tag in tags))
