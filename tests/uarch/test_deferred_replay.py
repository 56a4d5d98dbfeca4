"""Deferred replay in TraceMachine against a per-event eager oracle.

`TraceMachine` queues small memory blocks and branch traces and replays
each stream in large batches.  `test_batch_events.py` compares two
`TraceMachine`s, which both defer; this suite compares one against
:class:`EagerOracle`, which resolves every event on its own through
`CacheHierarchy.access` and `GsharePredictor.predict_and_update`, the
way the model is defined.  Programs mix scalar and block events of
every kind, blocks on both sides of the batch cutoffs, and streams long
enough to cross the pending bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.uarch.machine as machine_module
from repro.uarch.branch import BRANCH_BATCH_CUTOFF, BranchStats, GsharePredictor
from repro.uarch.cache import (
    BATCH_CUTOFF,
    REPLAY_BOUND,
    CacheConfig,
    CacheHierarchy,
)
from repro.uarch.events import MachineProbe, OpClass
from repro.uarch.machine import OP_LATENCY, MachineSummary, TraceMachine

#: Tiny hierarchy so random streams actually evict and spill levels.
TINY = CacheConfig(
    name="tiny",
    l1_size=4 * 1024, l1_ways=2,
    l2_size=16 * 1024, l2_ways=4,
    l3_size=64 * 1024, l3_ways=4,
)


class EagerOracle(MachineProbe):
    """Per-event model: every batch call loops over the scalar methods
    (the base class), and every scalar event updates the cache or the
    predictor at once."""

    def __init__(self, cache_config: CacheConfig = TINY) -> None:
        self.cache_config = cache_config
        self.cache = CacheHierarchy(cache_config)
        self.predictor = GsharePredictor()
        self.op_counts = {op: 0 for op in OpClass}
        self.load_levels = {1: 0, 2: 0, 3: 0, 4: 0}
        self.store_levels = {1: 0, 2: 0, 3: 0, 4: 0}
        self.dependent_latency_cycles = 0.0

    def alu(self, op_class, count=1, dependent=False):
        self.op_counts[op_class] += count
        if dependent:
            self.dependent_latency_cycles += count * OP_LATENCY[op_class]

    def load(self, address, size=8):
        self.op_counts[OpClass.LOAD] += 1
        self.load_levels[self.cache.access(address, size)] += 1

    def store(self, address, size=8):
        self.op_counts[OpClass.STORE] += 1
        self.store_levels[self.cache.access(address, size)] += 1

    def branch(self, site, taken):
        self.op_counts[OpClass.BRANCH] += 1
        self.predictor.predict_and_update(site, taken)

    def branch_bulk(self, site, taken_count):
        self.op_counts[OpClass.BRANCH] += taken_count
        self.predictor.stats.branches += taken_count
        self.predictor.stats.taken += taken_count

    def summary(self) -> MachineSummary:
        stats = self.predictor.stats
        return MachineSummary(
            op_counts=dict(self.op_counts),
            load_level_counts=dict(self.load_levels),
            store_level_counts=dict(self.store_levels),
            branch_stats=BranchStats(stats.branches, stats.mispredictions,
                                     stats.taken),
            dependent_latency_cycles=self.dependent_latency_cycles,
            cache_config=self.cache_config,
            l1_misses=self.cache.l1.misses,
            l2_misses=self.cache.l2.misses,
            l3_misses=self.cache.l3.misses,
        )


def _assert_matches_oracle(oracle: EagerOracle, machine: TraceMachine):
    assert machine.summary() == oracle.summary()
    assert machine.predictor.table == oracle.predictor.table
    assert machine.predictor.history == oracle.predictor.history
    assert machine.cache.memory_accesses == oracle.cache.memory_accesses
    for name in ("l1", "l2", "l3"):
        expected = getattr(oracle.cache, name)
        actual = getattr(machine.cache, name)
        assert (actual.hits, actual.misses) == (expected.hits, expected.misses)
        actual.materialize()
        for want, got in zip(expected._sets, actual._sets):
            assert sorted(got, key=got.get) == sorted(want, key=want.get)


def _addresses(seed: int, n: int) -> np.ndarray:
    """Sequential, strided, reused or random addresses (by seed)."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(0, 1 << 18))
    pattern = seed % 4
    if pattern == 0:
        return base + 8 * np.arange(n, dtype=np.int64)
    if pattern == 1:
        return base + 200 * np.arange(n, dtype=np.int64)
    if pattern == 2:
        return base + 64 * rng.integers(0, 24, size=n, dtype=np.int64)
    return rng.integers(0, 1 << 19, size=n, dtype=np.int64)


def _outcomes(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random(n) < (0.1, 0.5, 0.9)[seed % 3]


#: Block lengths on both sides of each batch cutoff.
block_len = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([BRANCH_BATCH_CUTOFF - 1, BRANCH_BATCH_CUTOFF,
                     BATCH_CUTOFF - 1, BATCH_CUTOFF, 700]),
)
sizes = st.sampled_from([1, 4, 8, 16, 48, 64, 100, 200])
sites = st.integers(min_value=0, max_value=5000)
seeds = st.integers(min_value=0, max_value=10_000)

events = st.one_of(
    st.tuples(st.just("load"), seeds, sizes),
    st.tuples(st.just("store"), seeds, sizes),
    st.tuples(st.just("load_block"), seeds, block_len, sizes),
    st.tuples(st.just("store_block"), seeds, block_len, sizes),
    st.tuples(st.just("branch"), sites, st.booleans()),
    st.tuples(st.just("branch_trace"), sites, seeds, block_len),
    st.tuples(st.just("branch_run"), sites,
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("alu_bulk"), st.sampled_from(list(OpClass)),
              st.integers(min_value=0, max_value=500),
              st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("touch_region"), seeds,
              st.integers(min_value=0, max_value=3000),
              st.sampled_from([8, 64, 128])),
    st.tuples(st.just("summary")),
)


def _play(program, oracle: EagerOracle, machine: TraceMachine) -> None:
    for event in program:
        kind = event[0]
        if kind in ("load", "store"):
            _, seed, size = event
            address = int(_addresses(seed, 1)[0])
            getattr(oracle, kind)(address, size)
            getattr(machine, kind)(address, size)
        elif kind in ("load_block", "store_block"):
            _, seed, n, size = event
            addresses = _addresses(seed, n)
            getattr(oracle, kind)(addresses, size)
            getattr(machine, kind)(addresses, size)
        elif kind == "branch":
            _, site, taken = event
            oracle.branch(site, taken)
            machine.branch(site, taken)
        elif kind == "branch_trace":
            _, site, seed, n = event
            outcomes = _outcomes(seed, n)
            oracle.branch_trace(site, outcomes)
            machine.branch_trace(site, outcomes)
        elif kind == "branch_run":
            _, site, taken_count = event
            oracle.branch_run(site, taken_count)
            machine.branch_run(site, taken_count)
        elif kind == "alu_bulk":
            _, op, count, dependent = event
            dependent = min(dependent, count)
            oracle.alu_bulk(op, count, dependent)
            machine.alu_bulk(op, count, dependent)
        elif kind == "touch_region":
            _, seed, size, stride = event
            address = int(_addresses(seed, 1)[0])
            oracle.touch_region(address, size, stride)
            machine.touch_region(address, size, stride)
        else:
            # A mid-program read flushes; later events must continue
            # from exactly the replayed state.
            assert machine.summary() == oracle.summary()


class TestEagerOracle:
    @given(program=st.lists(events, min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_random_programs_match_per_event_replay(self, program):
        oracle, machine = EagerOracle(), TraceMachine(TINY)
        _play(program, oracle, machine)
        _assert_matches_oracle(oracle, machine)

    @given(program=st.lists(events, min_size=1, max_size=25),
           bound=st.sampled_from([1, 7, 64, 300]))
    @settings(max_examples=40, deadline=None)
    def test_pending_bound_flushes_are_invisible(self, program, bound):
        """Small bounds make the bound trigger fire mid-program."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(machine_module, "REPLAY_BOUND", bound)
            oracle, machine = EagerOracle(), TraceMachine(TINY)
            _play(program, oracle, machine)
        _assert_matches_oracle(oracle, machine)

    def test_streams_past_the_real_bound(self):
        """Enough small blocks and traces to cross REPLAY_BOUND on both
        streams, with mixed sizes and sites."""
        rng = np.random.default_rng(3)
        oracle, machine = EagerOracle(), TraceMachine(TINY)
        emitted = branched = 0
        while min(emitted, branched) < 2 * REPLAY_BOUND:
            n = int(rng.integers(1, 200))
            addresses = _addresses(int(rng.integers(0, 1000)), n)
            size = int(rng.choice([1, 8, 16, 100]))
            kind = "store_block" if rng.random() < 0.3 else "load_block"
            getattr(oracle, kind)(addresses, size)
            getattr(machine, kind)(addresses, size)
            site = int(rng.integers(0, 64))
            outcomes = _outcomes(int(rng.integers(0, 1000)),
                                 int(rng.integers(1, 100)))
            oracle.branch_trace(site, outcomes)
            machine.branch_trace(site, outcomes)
            emitted += n
            branched += outcomes.shape[0]
        assert machine._memory or machine._branches  # a tail is pending
        _assert_matches_oracle(oracle, machine)

    def test_pending_blocks_own_their_payload(self):
        """A caller may reuse its buffers once a block call returns."""
        oracle, machine = EagerOracle(), TraceMachine(TINY)
        addresses = 64 * np.arange(20, dtype=np.int64)
        outcomes = np.ones(20, dtype=bool)
        for probe in (oracle, machine):
            probe.load_block(addresses)
            probe.branch_trace(1, outcomes)
        addresses += 1 << 16
        outcomes[:] = False
        for probe in (oracle, machine):
            probe.load_block(addresses)
            probe.branch_trace(1, outcomes)
        _assert_matches_oracle(oracle, machine)


class TestTruthyOutcomes:
    def test_non_bool_outcomes_replay_as_truth_values(self):
        """Outcomes drawn from {0, 1, 2} count 2 as one taken branch, on
        both sides of the vectorized cutoff, exactly as the base class's
        per-event replay does."""
        rng = np.random.default_rng(0)
        for n in (300, 40):
            outcomes = rng.integers(0, 3, size=n)
            per_event = TraceMachine(TINY)
            MachineProbe.branch_trace(per_event, 9, outcomes)
            batched = TraceMachine(TINY)
            batched.branch_trace(9, outcomes)
            assert batched.summary() == per_event.summary()
            assert batched.summary().branch_stats.taken == int(
                np.count_nonzero(outcomes))
            assert batched.predictor.table == per_event.predictor.table
            assert batched.predictor.history == per_event.predictor.history

    def test_int_lists_mixed_with_bool_arrays(self):
        """Queued int and bool traces concatenate into one bool stream."""
        oracle, machine = EagerOracle(), TraceMachine(TINY)
        for site, outcomes in ((1, [0, 2, 1, 3]), (2, np.array([True, False])),
                               (1, list(range(5)))):
            oracle.branch_trace(site, outcomes)
            machine.branch_trace(site, outcomes)
        _assert_matches_oracle(oracle, machine)

