"""Set-associative cache hierarchy simulator.

Consumes the load/store addresses kernels report and produces per-level
hit/miss counts, from which Figure 7's misses-per-kilo-instruction are
derived.  Misses are *exclusive* like the paper's: an access that misses
L1 but hits L2 is an L2 hit / L1 miss, and only L1 MPKI counts it.

Configurations for the paper's two machines (Table 5) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

LINE_SIZE = 64
_LINE_SHIFT = LINE_SIZE.bit_length() - 1

#: Below this many lines the vectorized batch paths lose to the scalar
#: loop on fixed numpy-dispatch overhead; small blocks fall back.  On
#: prefixes of the characterization suite's recorded batches (scale
#: 0.25) the crossover is ~160 lines for the full hierarchy, and ~64
#: (L1), under 64 (L2) and ~320 (L3) per level.  Replaying the whole
#: suite is flat (within 4%) for 384-1024 and 96-256 respectively.
BATCH_CUTOFF = 512
LEVEL_BATCH_CUTOFF = 192

#: Window positions gathered per chunk when counting distinct lines in
#: ambiguous LRU reuse windows (bounds the transient memory).
_WINDOW_CHUNK = 1 << 17

#: Events a :class:`~repro.uarch.machine.TraceMachine` stream may hold
#: pending before it replays them as one batch.  Each replay pays a
#: fixed numpy-dispatch cost per cache level.  Replaying the
#: characterization suite (scale 0.25) took the same time, within 4%,
#: at every bound from 4k to 64k.
REPLAY_BOUND = 16384


@dataclass
class CacheLevel:
    """One LRU set-associative cache level."""

    name: str
    size_bytes: int
    ways: int
    hits: int = 0
    misses: int = 0
    _sets: list[dict[int, int]] = field(default_factory=list, repr=False)
    _clock: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise SimulationError(f"bad cache config for {self.name}")
        n_sets = self.size_bytes // (LINE_SIZE * self.ways)
        if n_sets == 0:
            raise SimulationError(f"{self.name}: cache smaller than one set")
        # Round the set count down to a power of two so index masking
        # works; odd capacities (e.g. 1.25 MB 20-way) approximate down.
        self.n_sets = _pow2_floor(n_sets)
        self._sets = [{} for _ in range(self.n_sets)]
        # Batch overlay: sets last written by access_block keep their
        # state as fixed-shape arrays (row = set, resident lines in
        # LRU-to-MRU order, right-aligned, -1 before them).  A set whose
        # `_overlay_valid` byte is 1 is authoritative there, overriding
        # its dict until the scalar path drains it.  The batch path
        # views the bytes through numpy per call, so a copy of the level
        # cannot end up with flags and view apart.
        self._overlay_lines: np.ndarray | None = None
        self._overlay_valid = bytearray(self.n_sets)

    def access(self, line: int) -> bool:
        """Access cache line number *line*; returns True on hit."""
        index = line & (self.n_sets - 1)
        if self._overlay_valid[index]:
            self._drain(index)
        entries = self._sets[index]
        self._clock += 1
        if line in entries:
            entries[line] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            victim = min(entries, key=entries.get)  # LRU
            del entries[victim]
        entries[line] = self._clock
        return False

    def _drain(self, index: int) -> None:
        """Materialize one overlay set back into its dict."""
        row = self._overlay_lines[index]
        entries = {}
        for line in row[row >= 0].tolist():
            self._clock += 1  # LRU..MRU: ascending timestamps
            entries[line] = self._clock
        self._sets[index] = entries
        self._overlay_valid[index] = 0

    def materialize(self) -> None:
        """Drain the whole batch overlay into the per-set dicts.

        Call before inspecting ``_sets`` directly; the scalar and batch
        access paths drain on demand and never need this.
        """
        if self._overlay_lines is None:
            return
        valid = np.frombuffer(self._overlay_valid, dtype=np.uint8)
        for index in np.flatnonzero(valid).tolist():
            self._drain(index)
        self._overlay_lines = None

    def access_block(self, lines: np.ndarray) -> np.ndarray:
        """Access a whole line stream; returns a boolean hit array.

        Behaviour-identical to calling :meth:`access` per line, but
        vectorized via the LRU *stack-distance* property: the resident
        lines of a set are always its ``ways`` most recently used
        distinct lines, so an access hits iff fewer than ``ways``
        distinct lines of the same set intervened since its previous
        access.  The stream is grouped by set (sets are independent
        under LRU and stable grouping preserves each set's internal
        order), an access to the line its set accessed last drops out
        as a hit that changes nothing, and the rest split in two:

        * *Repeats* — the line occurred earlier in the batch.  Every
          pre-batch resident is older than the whole batch, so the
          window back to the previous occurrence contains batch
          accesses only; its distinct-line count is bounded wholly
          vectorized (the window length above, the first occurrences
          inside it below), leaving only ambiguous accesses to a
          windowed count.
        * *First occurrences* — resolved against the set's resident
          stack with a fixed-width membership test: a resident at depth
          ``d`` from MRU hits iff ``d`` plus the distinct batch lines
          already accessed in the set, minus those counted twice (newer
          residents also re-accessed earlier in the batch — a small
          per-set dominance count), stays below ``ways``.

        Internal timestamps differ from the scalar path's, but resident
        lines and their recency order (the only state observable
        through behaviour) match exactly.
        """
        n = lines.shape[0]
        if n < LEVEL_BATCH_CUTOFF:
            hits = np.zeros(n, dtype=bool)
            access = self.access
            for position, line in enumerate(lines.tolist()):
                hits[position] = access(line)
            return hits
        mask = self.n_sets - 1
        ways = self.ways
        order = _stable_argsort(lines & mask, self.n_sets)
        sorted_lines = lines[order]
        # An access to the line its set accessed last is a hit that
        # changes no recency order, so these per-set repeats drop out
        # here (equal lines share a set, so they are adjacent).
        fresh = np.empty(n, dtype=bool)
        fresh[0] = True
        np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=fresh[1:])
        order = order[fresh]
        sorted_lines = sorted_lines[fresh]
        m = sorted_lines.shape[0]
        sorted_sets = sorted_lines & mask
        boundary = np.empty(m, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=boundary[1:])
        set_starts = np.flatnonzero(boundary)
        touched = sorted_sets[set_starts]
        # Group the stream by line: a stable sort by tag (the bits above
        # the set index) keeps each line's positions ascending.
        tags = sorted_lines >> (self.n_sets.bit_length() - 1)
        by_value = _stable_argsort(tags, int(tags.max()) + 1)
        value_sorted = sorted_lines[by_value]
        new_run = np.empty(m, dtype=bool)
        new_run[0] = True
        np.not_equal(value_sorted[1:], value_sorted[:-1], out=new_run[1:])
        is_first = np.zeros(m, dtype=bool)
        is_first[by_value[new_run]] = True
        firsts = np.flatnonzero(is_first)
        # Repeats, in line order: entry k > 0 repeats entry k - 1 unless
        # it starts a new line, and ``gap - 1`` accesses of the set lie
        # between them.  A repeat hits iff that window holds < ways
        # distinct lines: its length bounds the count from above and
        # the first occurrences inside it from below; the rest are
        # counted.
        gap = by_value[1:] - by_value[:-1]
        repeat = ~new_run[1:]
        hit_by_value = np.zeros(m, dtype=bool)
        np.logical_and(repeat, gap <= ways, out=hit_by_value[1:])
        far = np.flatnonzero(repeat & (gap > ways))
        inside = (np.searchsorted(firsts, by_value[far + 1])
                  - np.searchsorted(firsts, by_value[far], side="right"))
        far = far[inside < ways]
        if far.shape[0]:
            prev = np.empty(m, dtype=np.int64)
            prev[by_value[1:]] = by_value[:-1]
            prev[firsts] = -1
            hit_by_value[far + 1] = ~_windows_reach(
                prev, by_value[far], gap[far] - 1, ways)
        hits = np.ones(n, dtype=bool)
        hits[order[by_value]] = hit_by_value
        misses = m - int(np.count_nonzero(hit_by_value))
        # First occurrences: membership in the resident stack.  A
        # resident at depth ``d`` from MRU hits iff ``d`` plus the
        # distinct batch lines already accessed in the set, minus those
        # counted twice (newer residents re-accessed earlier in the
        # batch: a per-set dominance count), stays below ``ways``.
        stacks = self._resident_stacks(touched)
        f_slot = np.searchsorted(set_starts, firsts, side="right") - 1
        matched, column = np.divmod(np.flatnonzero(
            stacks.take(f_slot, axis=0) == sorted_lines[firsts][:, None]
        ), ways)
        if matched.shape[0]:
            m_slot = f_slot[matched]
            # Distinct batch lines already accessed in the set = this
            # first occurrence's rank among the set's first occurrences.
            rank = matched - np.searchsorted(firsts, set_starts)[m_slot]
            depth = ways - 1 - column
            # The dominance count is at most the newer residents and at
            # most the set's earlier matches, so it is needed only where
            # those bounds leave the outcome open.  At most `ways`
            # residents match per set, so a padded (slots, ways) matrix
            # of matched columns covers it.
            within = np.arange(matched.shape[0]) - np.searchsorted(
                m_slot, m_slot)
            distinct = depth + rank
            unsure = np.flatnonzero((distinct >= ways) & (
                distinct - np.minimum(depth, within) < ways))
            if unsure.shape[0]:
                slot_matches = np.full(stacks.shape, -1, dtype=np.int64)
                slot_matches[m_slot, within] = column
                distinct[unsure] -= (
                    (slot_matches[m_slot[unsure]] > column[unsure, None])
                    & (np.arange(ways) < within[unsure, None])
                ).sum(axis=1)
            resident_hit = distinct < ways
            hits[order[firsts[matched[resident_hit]]]] = True
            misses -= int(np.count_nonzero(resident_hit))
            # Re-accessed residents move up among the batch lines.
            stacks[m_slot, column] = -1
        self.hits += n - misses
        self.misses += misses
        # New stacks: the untouched residents, then each set's batch
        # lines in order of their last access (positions ascend set by
        # set); a set keeps the last `ways` of them.
        run_end = np.empty(m, dtype=bool)
        run_end[-1] = True
        run_end[:-1] = new_run[1:]
        is_last = np.zeros(m, dtype=bool)
        is_last[by_value[run_end]] = True
        last_positions = np.flatnonzero(is_last)
        line_slot = np.searchsorted(set_starts, last_positions,
                                    side="right") - 1
        set_ends = np.append(np.searchsorted(last_positions, set_starts[1:]),
                             last_positions.shape[0])
        from_end = (set_ends[line_slot] - 1
                    - np.arange(last_positions.shape[0]))
        recent = np.flatnonzero(from_end < ways)
        combined = np.concatenate(
            [stacks, np.full(stacks.shape, -1, dtype=np.int64)], axis=1)
        combined[line_slot[recent], 2 * ways - 1 - from_end[recent]] = (
            sorted_lines[last_positions[recent]])
        self._store_overlay(touched, combined)
        self._clock += n
        return hits

    def _resident_stacks(self, touched: np.ndarray) -> np.ndarray:
        """Resident stacks of the touched sets as a fixed-width matrix.

        Row = one touched set's lines in LRU-to-MRU order, right-aligned
        with -1 before them.  Sets live in the overlay are gathered
        vectorized; the rest read their dicts.
        """
        stacks = np.full((touched.shape[0], self.ways), -1, dtype=np.int64)
        if self._overlay_lines is not None:
            in_overlay = np.frombuffer(
                self._overlay_valid, dtype=np.uint8)[touched] != 0
            stacks[in_overlay] = self._overlay_lines[touched[in_overlay]]
            dict_slots = np.flatnonzero(~in_overlay)
        else:
            dict_slots = np.arange(touched.shape[0])
        sets = self._sets
        for slot, set_index in zip(dict_slots.tolist(),
                                   touched[dict_slots].tolist()):
            entries = sets[set_index]
            if entries:
                resident = sorted(entries, key=entries.get)
                stacks[slot, self.ways - len(resident):] = resident
        return stacks

    def _store_overlay(self, sets: np.ndarray, combined: np.ndarray) -> None:
        """Keep the last ``ways`` lines (entries other than -1) of each
        row of *combined* as the overlay stack of the matching set."""
        if self._overlay_lines is None:
            self._overlay_lines = np.full(
                (self.n_sets, self.ways), -1, dtype=np.int64
            )
        valid = combined >= 0
        # Valid entries at or after each column; the kept ones shift
        # right to column ways - that count.
        from_right = valid[:, ::-1].cumsum(axis=1, dtype=np.int16)[:, ::-1]
        keep = np.flatnonzero(valid & (from_right <= self.ways))
        rows = keep // combined.shape[1]
        stacks = np.full((sets.shape[0], self.ways), -1, dtype=np.int64)
        stacks[rows, self.ways - from_right.ravel()[keep]] = (
            combined.ravel()[keep])
        self._overlay_lines[sets] = stacks
        np.frombuffer(self._overlay_valid, dtype=np.uint8)[sets] = 1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class CacheConfig:
    """Capacity/associativity of a three-level hierarchy."""

    name: str
    l1_size: int
    l1_ways: int
    l2_size: int
    l2_ways: int
    l3_size: int
    l3_ways: int
    # Load-to-use latencies (cycles), used by the top-down model.
    l1_latency: int = 4
    l2_latency: int = 14
    l3_latency: int = 44
    memory_latency: int = 170


#: Machine A: Intel Xeon E5-2697 v3 (Table 5); L3 is per-socket 35 MB but
#: sized down to the per-core share a single-threaded kernel effectively
#: owns under LRU competition-free conditions.
MACHINE_A = CacheConfig(
    name="machine_a",
    l1_size=32 * 1024, l1_ways=8,
    l2_size=256 * 1024, l2_ways=8,
    l3_size=32 * 1024 * 1024, l3_ways=16,
)

#: Machine B: Intel Xeon Gold 6326 (Table 5) — the kernel analysis machine.
MACHINE_B = CacheConfig(
    name="machine_b",
    l1_size=48 * 1024, l1_ways=12,
    l2_size=1280 * 1024, l2_ways=20,
    l3_size=24 * 1024 * 1024, l3_ways=12,
)


class CacheHierarchy:
    """Three-level inclusive hierarchy fed with byte addresses."""

    def __init__(self, config: CacheConfig = MACHINE_B) -> None:
        self.config = config
        self.l1 = CacheLevel("l1", config.l1_size, config.l1_ways)
        self.l2 = CacheLevel("l2", _pow2_floor(config.l2_size), config.l2_ways)
        self.l3 = CacheLevel("l3", _pow2_floor(config.l3_size), config.l3_ways)
        self.memory_accesses = 0

    def access(self, address: int, size: int = 8) -> int:
        """Access [address, address+size); returns the deepest level
        touched (1 = L1 hit, 2 = L2, 3 = L3, 4 = memory) over the lines
        spanned (worst line wins)."""
        first_line = address // LINE_SIZE
        last_line = (address + max(size, 1) - 1) // LINE_SIZE
        if first_line == last_line:
            return self._access_line(first_line)
        worst = 1
        for line in range(first_line, last_line + 1):
            worst = max(worst, self._access_line(line))
        return worst

    def access_block(
        self, addresses: np.ndarray, size: int | np.ndarray = 8
    ) -> np.ndarray:
        """Access a batch of [address, address+size) ranges in stream
        order; returns the per-access deepest level touched (1-4).

        *size* is one byte count for the whole batch or one per address.
        Bit-identical to calling :meth:`access` per address.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = addresses.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int8)
        first = addresses >> _LINE_SHIFT
        last = (addresses + (np.maximum(size, 1) - 1)) >> _LINE_SHIFT
        if np.array_equal(first, last):
            # Common case: every access fits in one line.
            return self._access_lines_block(first)
        counts = last - first + 1
        starts = np.cumsum(counts) - counts
        lines = np.arange(int(starts[-1] + counts[-1])) + np.repeat(
            first - starts, counts
        )
        return np.maximum.reduceat(self._access_lines_block(lines), starts)

    def _access_lines_block(self, lines: np.ndarray) -> np.ndarray:
        """Per-line deepest level (1-4) for a line stream, vectorized.

        Consecutive repeats of the same line are guaranteed L1 hits (the
        line was just installed/refreshed and nothing intervened), so
        they are credited to L1 directly and only the deduped residual
        replays through the per-level LRU simulators.  Each level sees
        its miss stream in original order, so results match the scalar
        path exactly.
        """
        n = lines.shape[0]
        if n < BATCH_CUTOFF:
            return np.fromiter(
                map(self._access_line, lines.tolist()),
                dtype=np.int8, count=n,
            )
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        residual = np.flatnonzero(keep)
        self.l1.hits += n - residual.shape[0]
        levels = np.ones(n, dtype=np.int8)
        # Positions (in the line stream) missing L1, then L2, then L3.
        miss = residual[~self.l1.access_block(lines[residual])]
        for depth, level in ((2, self.l2), (3, self.l3)):
            if not miss.shape[0]:
                break
            levels[miss] = depth
            miss = miss[~level.access_block(lines[miss])]
        else:
            levels[miss] = 4
            self.memory_accesses += miss.shape[0]
        return levels

    def _access_line(self, line: int) -> int:
        if self.l1.access(line):
            return 1
        if self.l2.access(line):
            return 2
        if self.l3.access(line):
            return 3
        self.memory_accesses += 1
        return 4

    def mpki(self, instructions: int) -> dict[str, float]:
        """Exclusive misses per kilo-instruction at each level."""
        if instructions <= 0:
            raise SimulationError("instructions must be positive for MPKI")
        scale = 1000.0 / instructions
        return {
            "l1": (self.l1.misses - self.l2.misses) * scale,
            "l2": (self.l2.misses - self.l3.misses) * scale,
            "l3": self.l3.misses * scale,
        }


def _stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integers known to be < *bound*.

    Each key is packed above its own position, so a plain (unstable,
    SIMD) sort of the packed words orders equal keys by position and the
    low bits read back the permutation.  Keys and positions fitting 32
    bits sort as uint32, about twice as fast as a 64-bit or radix
    argsort on the block sizes the batch paths see.
    """
    n = values.shape[0]
    shift = max(n - 1, 1).bit_length()
    low = (1 << shift) - 1
    if (bound - 1) << shift <= 0xFFFFFFFF:
        packed = values.astype(np.uint32)
    elif (bound - 1) << shift <= 0x7FFFFFFFFFFFFFFF:
        packed = values.astype(np.int64)
    else:
        return np.argsort(values, kind="stable")
    packed <<= shift
    packed |= np.arange(n, dtype=packed.dtype)
    packed.sort()
    packed &= low
    return packed.astype(np.intp, copy=False)


def _windows_reach(
    prev: np.ndarray, before: np.ndarray, lengths: np.ndarray, ways: int
) -> np.ndarray:
    """Whether each stream window ``(before[k], before[k] + lengths[k] + 1)``
    holds at least *ways* distinct lines.

    A window position starts a new distinct line iff its own previous
    occurrence ``prev`` lies at or before the window's start.  Windows
    are scanned from their start in rounds of doubling width (from
    ``2 * ways`` positions, at most about :data:`_WINDOW_CHUNK` per
    round); a window leaves once it has counted *ways* lines or is
    exhausted, so one of many distinct lines stops in the first round.
    """
    reached = np.zeros(before.shape[0], dtype=bool)
    live = np.arange(before.shape[0])
    start = before + 1
    end = start + lengths
    need = np.full(before.shape[0], ways, dtype=np.int64)
    width = ways
    while live.shape[0]:
        width = max(2 * ways, min(2 * width, _WINDOW_CHUNK // live.shape[0]))
        span = np.minimum(width, end - start)
        fresh = prev[_segment_indices(start, span)] <= np.repeat(before, span)
        need -= np.add.reduceat(fresh, np.cumsum(span) - span, dtype=np.int64)
        start += span
        done = need <= 0
        reached[live[done]] = True
        more = ~done & (start < end)
        live, before, start, end, need = (
            live[more], before[more], start[more], end[more], need[more])
    return reached


def _segment_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat gather indices for segments ``[starts[k], starts[k]+lengths[k])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return (np.repeat(starts, lengths) + np.arange(total)
            - np.repeat(np.cumsum(lengths) - lengths, lengths))


def _pow2_floor(value: int) -> int:
    """Largest power of two <= value (cache sizes like 1.25 MB need it)."""
    result = 1
    while result * 2 <= value:
        result *= 2
    return result
