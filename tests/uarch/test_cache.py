"""Cache hierarchy simulator."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.uarch.cache import (
    LEVEL_BATCH_CUTOFF,
    LINE_SIZE,
    MACHINE_A,
    MACHINE_B,
    CacheHierarchy,
    CacheLevel,
)


class TestCacheLevel:
    def test_lru_eviction(self):
        # 2 sets x 2 ways: lines 0,2,4 map to set 0 (even line numbers).
        level = CacheLevel("t", size_bytes=4 * LINE_SIZE, ways=2)
        assert not level.access(0)
        assert not level.access(2)
        assert level.access(0)        # refresh 0: now 2 is LRU
        assert not level.access(4)    # evicts 2
        assert level.access(0)
        assert not level.access(2)    # 2 was evicted

    def test_hit_after_fill(self):
        level = CacheLevel("t", size_bytes=4 * LINE_SIZE, ways=2)
        level.access(7)
        assert level.access(7)
        assert level.hits == 1
        assert level.misses == 1

    def test_bad_config_rejected(self):
        with pytest.raises(SimulationError):
            CacheLevel("t", size_bytes=0, ways=2)

    def test_set_allocation_matches_index_mask(self):
        # 1.25 MB 20-way gives 1024 raw sets... but e.g. 6 raw sets
        # floors to 4: only the floored count is ever indexed by the
        # mask, so only that many dicts may be allocated.
        level = CacheLevel("t", size_bytes=6 * 2 * LINE_SIZE, ways=2)
        assert level.n_sets == 4
        assert len(level._sets) == level.n_sets

    def test_access_block_matches_scalar_access(self):
        import numpy as np

        lines = np.array([0, 2, 0, 4, 0, 2, 7, 7, 2], dtype=np.int64)
        batched = CacheLevel("t", size_bytes=4 * LINE_SIZE, ways=2)
        hits = batched.access_block(lines)
        scalar = CacheLevel("t", size_bytes=4 * LINE_SIZE, ways=2)
        expected = [scalar.access(int(line)) for line in lines]
        assert hits.tolist() == expected
        assert batched.hits == scalar.hits
        assert batched.misses == scalar.misses


def _line_block(rng, length, pool, base):
    """A line stream over *pool* lines from *base* mixing the shapes the
    batch path handles apart: runs of one line (per-set repeats),
    cycles through one set's lines (reuse windows at and around the
    associativity) and random reuse (evictions)."""
    lines = []
    while len(lines) < length:
        shape = rng.integers(3)
        if shape == 0:
            lines += [int(rng.integers(pool))] * int(rng.integers(2, 6))
        elif shape == 1:
            first = int(rng.integers(pool))
            cycle = [(first + 4 * k) % pool
                     for k in range(int(rng.integers(2, 7)))]
            lines += cycle * int(rng.integers(2, 5))
        else:
            lines += rng.integers(pool, size=int(rng.integers(1, 20))).tolist()
    return base + np.array(lines[:length], dtype=np.int64)


def _resident_order(level):
    level.materialize()
    return [sorted(entries, key=entries.get) for entries in level._sets]


class TestAccessBlockDifferential:
    @given(
        ways=st.integers(min_value=2, max_value=4),
        pool=st.integers(min_value=8, max_value=64),
        base=st.sampled_from([0, 1 << 20, 1 << 40]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rounds=st.lists(
            st.tuples(st.integers(min_value=LEVEL_BATCH_CUTOFF,
                                  max_value=3 * LEVEL_BATCH_CUTOFF),
                      st.integers(min_value=0, max_value=12)),
            min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_batches_match_per_line_access(self, ways, pool, base, seed,
                                           rounds):
        """Vectorized blocks on a 4-set cache, with scalar accesses in
        between, match the per-line path access for access and leave
        every set's residents in the same recency order."""
        rng = np.random.default_rng(seed)
        batched = CacheLevel("t", size_bytes=4 * ways * LINE_SIZE, ways=ways)
        scalar = CacheLevel("t", size_bytes=4 * ways * LINE_SIZE, ways=ways)
        assert batched.n_sets == 4
        for length, between in rounds:
            lines = _line_block(rng, length, pool, base)
            hits = batched.access_block(lines)
            assert hits.tolist() == [scalar.access(line)
                                     for line in lines.tolist()]
            for line in (base + rng.integers(pool, size=between)).tolist():
                assert batched.access(line) == scalar.access(line)
        assert (batched.hits, batched.misses) == (scalar.hits, scalar.misses)
        assert _resident_order(batched) == _resident_order(scalar)

    def test_copied_level_keeps_its_overlay(self):
        """A copy taken after a batch hands sets between its own overlay
        and dicts: line 4 leaves set 0 of the copy through a scalar
        access, so the next batch must miss it."""
        filler = np.resize(np.array([1, 2, 3, 5, 6, 7], dtype=np.int64),
                           LEVEL_BATCH_CUTOFF)
        level = CacheLevel("t", size_bytes=8 * LINE_SIZE, ways=2)
        level.access_block(np.append(filler, [4, 8]))
        copied = copy.deepcopy(level)
        scalar = CacheLevel("t", size_bytes=8 * LINE_SIZE, ways=2)
        for line in filler.tolist() + [4, 8, 12]:
            scalar.access(line)
        copied.access(12)
        lines = np.append([4], filler)
        assert copied.access_block(lines).tolist() == [
            scalar.access(line) for line in lines.tolist()]
        assert _resident_order(copied) == _resident_order(scalar)


class TestHierarchy:
    def test_first_touch_misses_everywhere(self):
        hierarchy = CacheHierarchy(MACHINE_B)
        assert hierarchy.access(0x1000) == 4
        assert hierarchy.access(0x1000) == 1

    def test_capacity_spill_to_l2(self):
        hierarchy = CacheHierarchy(MACHINE_B)
        lines = (MACHINE_B.l1_size // LINE_SIZE) * 4
        for i in range(lines):
            hierarchy.access(i * LINE_SIZE)
        # revisit: L1 cannot hold all; most should hit L2.
        levels = [hierarchy.access(i * LINE_SIZE) for i in range(lines)]
        assert levels.count(2) > lines // 2

    def test_multi_line_access_worst_level(self):
        hierarchy = CacheHierarchy(MACHINE_B)
        hierarchy.access(0)
        # spans line 0 (hit) and line 1 (miss) -> worst = memory
        assert hierarchy.access(LINE_SIZE - 4, size=8) == 4

    def test_mpki_exclusive(self):
        hierarchy = CacheHierarchy(MACHINE_B)
        for i in range(100):
            hierarchy.access(i * LINE_SIZE)
        mpki = hierarchy.mpki(instructions=1000)
        # first-touch: all 100 go to memory; exclusive counting puts them in l3
        assert mpki["l1"] == 0.0
        assert mpki["l2"] == 0.0
        assert mpki["l3"] == 100.0

    def test_machine_a_config_loads(self):
        CacheHierarchy(MACHINE_A).access(0)

    def test_access_block_matches_scalar_hierarchy(self):
        import numpy as np

        addresses = np.array(
            [0x1000, 0x1000, 0x1004, 0x2000, 0x1000, 0x103C, 0x5000],
            dtype=np.int64,
        )
        batched = CacheHierarchy(MACHINE_B)
        levels = batched.access_block(addresses, size=8)
        scalar = CacheHierarchy(MACHINE_B)
        expected = [scalar.access(int(a), size=8) for a in addresses]
        assert levels.tolist() == expected
        assert batched.memory_accesses == scalar.memory_accesses

    def test_access_block_multi_line_worst_level(self):
        import numpy as np

        hierarchy = CacheHierarchy(MACHINE_B)
        hierarchy.access(0)
        # spans line 0 (hit) and line 1 (miss) -> worst = memory,
        # through the block path's line-expansion scatter.
        levels = hierarchy.access_block(
            np.array([LINE_SIZE - 4], dtype=np.int64), size=8
        )
        assert levels.tolist() == [4]
