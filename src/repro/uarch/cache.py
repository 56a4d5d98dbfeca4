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

#: Below this many lines the vectorized batch paths lose to the scalar
#: loop on fixed numpy-dispatch overhead (measured crossover ~600 for
#: the full hierarchy, lower per level); small blocks fall back.
BATCH_CUTOFF = 512
LEVEL_BATCH_CUTOFF = 192

#: Window positions gathered per chunk when counting distinct lines in
#: ambiguous LRU reuse windows (bounds the transient memory).
_WINDOW_CHUNK = 1 << 17

#: Events a :class:`~repro.uarch.machine.TraceMachine` stream may hold
#: pending before it replays them as one batch.  Each replay pays a
#: fixed numpy-dispatch cost per cache level; on the characterization
#: suite (scale 0.25) 16k beat 4k and 8k, and 32k-64k bought nothing more.
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
        self._sets = [dict() for _ in range(self.n_sets)]
        # Batch overlay: sets last written by access_block keep their
        # state as fixed-shape arrays (row = set, resident lines in
        # LRU-to-MRU order, `_overlay_len` entries valid).  A set whose
        # `_overlay_valid` byte is 1 is authoritative there, overriding
        # its dict until the scalar path drains it.
        self._overlay_lines: np.ndarray | None = None
        self._overlay_len: np.ndarray | None = None
        self._overlay_valid = bytearray(self.n_sets)
        self._overlay_valid_np = np.frombuffer(
            self._overlay_valid, dtype=np.uint8
        )

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
        count = int(self._overlay_len[index])
        entries = {}
        for line in self._overlay_lines[index, :count].tolist():
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
        for index in np.flatnonzero(self._overlay_valid_np).tolist():
            self._drain(index)
        self._overlay_lines = None
        self._overlay_len = None

    def access_block(self, lines: np.ndarray) -> np.ndarray:
        """Access a whole line stream; returns a boolean hit array.

        Behaviour-identical to calling :meth:`access` per line, but
        vectorized via the LRU *stack-distance* property: the resident
        lines of a set are always its ``ways`` most recently used
        distinct lines, so an access hits iff fewer than ``ways``
        distinct lines of the same set intervened since its previous
        access.  The stream is grouped by set (sets are independent
        under LRU and stable grouping preserves each set's internal
        order) and split in two:

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
        hits = np.zeros(n, dtype=bool)
        if n == 0:
            return hits
        if n < LEVEL_BATCH_CUTOFF:
            access = self.access
            for position, line in enumerate(lines.tolist()):
                hits[position] = access(line)
            return hits
        mask = self.n_sets - 1
        ways = self.ways
        order = _stable_argsort(lines & mask, self.n_sets)
        sorted_lines = lines[order]
        sorted_sets = sorted_lines & mask
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=boundary[1:])
        set_starts = np.flatnonzero(boundary)
        touched = sorted_sets[set_starts]
        n_touched = touched.shape[0]
        access_counts = np.diff(np.append(set_starts, n))
        slot_of = np.repeat(np.arange(n_touched), access_counts)
        # Previous in-batch occurrence of each line (positions in the
        # set-sorted stream; same line => same set => same block).
        by_value = _stable_argsort(sorted_lines, int(sorted_lines.max()) + 1)
        value_sorted = sorted_lines[by_value]
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        np.not_equal(value_sorted[1:], value_sorted[:-1], out=new_run[1:])
        prev = np.full(n, -1, dtype=np.int64)
        continuing = np.flatnonzero(~new_run)
        prev[by_value[continuing]] = by_value[continuing - 1]
        first = prev == -1
        firsts_cum = np.cumsum(first)
        hit_sorted = np.zeros(n, dtype=bool)
        # Repeats: hit iff the window (prev, i) holds < ways distinct
        # batch lines.
        repeat = ~first
        window = np.arange(n) - prev - 1
        firsts_in_window = np.where(
            repeat, firsts_cum - firsts_cum[prev], 0
        )
        hit_sorted[repeat & (window < ways)] = True
        ambiguous = np.flatnonzero(repeat & (window >= ways)
                                   & (firsts_in_window < ways))
        if ambiguous.shape[0]:
            hit_sorted[ambiguous] = _window_distinct(prev, ambiguous) < ways
        # First occurrences: membership in the resident stack.
        seed_rows, seed_len = self._collect_seed_rows(touched)
        column = np.arange(ways)
        f_idx = np.flatnonzero(first)
        f_slot = slot_of[f_idx]
        match = (seed_rows[f_slot] == sorted_lines[f_idx][:, None]) & (
            column[None, :] < seed_len[f_slot][:, None]
        )
        matched = np.flatnonzero(match.any(axis=1))
        n_matched = matched.shape[0]
        if n_matched:
            seed_pos = np.argmax(match[matched], axis=1)
            m_slot = f_slot[matched]
            depth = seed_len[m_slot] - 1 - seed_pos
            # Distinct batch lines already accessed in the set = this
            # first occurrence's rank among the set's first occurrences.
            firsts_before = firsts_cum - first
            rank = (firsts_before[f_idx[matched]]
                    - firsts_before[set_starts][m_slot])
            # Residents re-accessed earlier in the batch are in both
            # counts; subtract the per-set dominance count (newer
            # resident AND earlier first occurrence).  At most `ways`
            # residents match per set, so a padded (slots, ways) matrix
            # of matched seed positions covers it.
            m_boundary = np.empty(n_matched, dtype=bool)
            m_boundary[0] = True
            np.not_equal(m_slot[1:], m_slot[:-1], out=m_boundary[1:])
            m_starts = np.flatnonzero(m_boundary)
            m_counts = np.diff(np.append(m_starts, n_matched))
            within = np.arange(n_matched) - np.repeat(m_starts, m_counts)
            slot_matches = np.full((n_touched, ways), -1, dtype=np.int64)
            slot_matches[m_slot, within] = seed_pos
            overlap = (
                (slot_matches[m_slot] > seed_pos[:, None])
                & (column[None, :] < within[:, None])
            ).sum(axis=1)
            hit_sorted[f_idx[matched]] = (depth + rank - overlap) < ways
        hits[order] = hit_sorted
        hit_count = int(np.count_nonzero(hits))
        self.hits += hit_count
        self.misses += n - hit_count
        # New overlay state per touched set: the batch-accessed lines,
        # newest last, stacked on top of the untouched residents.  Runs
        # in the value sort correspond one-to-one to distinct lines; the
        # end of each run is the line's final access position.
        run_end = np.empty(n, dtype=bool)
        run_end[-1] = True
        run_end[:-1] = new_run[1:]
        line_values = value_sorted[new_run]
        last_access = by_value[run_end]
        line_slot = slot_of[last_access]
        by_last = _stable_argsort(last_access, n)
        grouped = by_last[_stable_argsort(line_slot[by_last], n_touched)]
        runs = grouped.shape[0]
        g_slot = line_slot[grouped]
        g_boundary = np.empty(runs, dtype=bool)
        g_boundary[0] = True
        np.not_equal(g_slot[1:], g_slot[:-1], out=g_boundary[1:])
        group_starts = np.flatnonzero(g_boundary)
        group_counts = np.diff(np.append(group_starts, runs))
        keep_counts = np.minimum(group_counts, ways)
        # Untouched residents (valid, not re-accessed) fill what's left,
        # newest first, preserving their relative order below the batch
        # lines.  Left-pack them per row, then take each row's tail.
        shared = np.zeros((n_touched, ways), dtype=bool)
        if n_matched:
            shared[m_slot, seed_pos] = True
        untouched = (column[None, :] < seed_len[:, None]) & ~shared
        cum_untouched = untouched.cumsum(axis=1, dtype=np.int8)
        untouched_counts = cum_untouched[:, -1].astype(np.int64)
        fill_counts = np.minimum(ways - keep_counts, untouched_counts)
        total_counts = keep_counts + fill_counts
        offsets = np.cumsum(total_counts) - total_counts
        flat = np.empty(int(total_counts.sum()), dtype=np.int64)
        if int(fill_counts.sum()):
            # The last fill_counts[t] untouched entries of each row, in
            # row-major order (LRU..MRU preserved).
            take = untouched & (
                cum_untouched
                > (untouched_counts - fill_counts)[:, None].astype(np.int8)
            )
            flat[_segment_indices(offsets, fill_counts)] = seed_rows[take]
        flat[_segment_indices(offsets + fill_counts, keep_counts)] = (
            line_values[grouped][_segment_indices(
                group_starts + group_counts - keep_counts, keep_counts
            )]
        )
        self._store_overlay(touched, total_counts, flat)
        self._clock += n
        return hits

    def _collect_seed_rows(
        self, touched: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resident stacks of the touched sets as a fixed-width matrix.

        Row = one touched set's lines in LRU-to-MRU order, first
        ``seed_len`` entries valid.  Sets live in the overlay are
        gathered vectorized; the rest read their dicts.
        """
        n_touched = touched.shape[0]
        seed_rows = np.zeros((n_touched, self.ways), dtype=np.int64)
        seed_len = np.zeros(n_touched, dtype=np.int64)
        if self._overlay_lines is not None:
            in_overlay = self._overlay_valid_np[touched] != 0
            if in_overlay.any():
                seed_rows[in_overlay] = self._overlay_lines[touched[in_overlay]]
                seed_len[in_overlay] = self._overlay_len[touched[in_overlay]]
            dict_slots = np.flatnonzero(~in_overlay)
        else:
            dict_slots = np.arange(n_touched)
        sets = self._sets
        for slot, set_index in zip(dict_slots.tolist(),
                                   touched[dict_slots].tolist()):
            entries = sets[set_index]
            if entries:
                resident = sorted(entries, key=entries.get)
                seed_rows[slot, :len(resident)] = resident
                seed_len[slot] = len(resident)
        return seed_rows, seed_len

    def _store_overlay(
        self,
        new_sets: np.ndarray,
        new_counts: np.ndarray,
        new_lines: np.ndarray,
    ) -> None:
        """Scatter a batch's per-set state into the overlay arrays."""
        if self._overlay_lines is None:
            self._overlay_lines = np.zeros(
                (self.n_sets, self.ways), dtype=np.int64
            )
            self._overlay_len = np.zeros(self.n_sets, dtype=np.int64)
        row = np.repeat(new_sets, new_counts)
        column = (np.arange(new_lines.shape[0])
                  - np.repeat(np.cumsum(new_counts) - new_counts, new_counts))
        self._overlay_lines[row, column] = new_lines
        self._overlay_len[new_sets] = new_counts
        self._overlay_valid_np[new_sets] = 1

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
            return np.zeros(0, dtype=np.int64)
        first = addresses // LINE_SIZE
        last = (addresses + np.maximum(size, 1) - 1) // LINE_SIZE
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
                dtype=np.int64, count=n,
            )
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        residual = lines[keep]
        duplicates = n - residual.shape[0]
        if duplicates:
            self.l1.hits += duplicates
        l1_hits = self.l1.access_block(residual)
        residual_levels = np.ones(residual.shape[0], dtype=np.int64)
        l1_miss = residual[~l1_hits]
        if l1_miss.shape[0]:
            l2_hits = self.l2.access_block(l1_miss)
            miss_levels = np.full(l1_miss.shape[0], 2, dtype=np.int64)
            l2_miss = l1_miss[~l2_hits]
            if l2_miss.shape[0]:
                l3_hits = self.l3.access_block(l2_miss)
                deep = np.where(l3_hits, 3, 4)
                self.memory_accesses += int(np.count_nonzero(~l3_hits))
                miss_levels[~l2_hits] = deep
            residual_levels[~l1_hits] = miss_levels
        if not duplicates:
            return residual_levels
        levels = np.ones(n, dtype=np.int64)
        levels[keep] = residual_levels
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

    Small keys take one or two uint16 radix passes — several times
    faster than a generic 64-bit sort on the block sizes the batch
    paths see.
    """
    if bound <= 1 << 16:
        return np.argsort(values.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        inner = np.argsort((values & 0xFFFF).astype(np.uint16), kind="stable")
        high = (values[inner] >> 16).astype(np.uint16)
        return inner[np.argsort(high, kind="stable")]
    return np.argsort(values, kind="stable")


def _window_distinct(prev: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Distinct lines strictly between each repeat in *positions* and its
    previous occurrence ``prev[i]``.

    A window position starts a new distinct line iff its own previous
    occurrence lies at or before the window's start, so each count is
    one vectorized compare over the window.  Windows are gathered in
    chunks of about :data:`_WINDOW_CHUNK` positions to bound memory.
    """
    before = prev[positions]
    lengths = positions - before - 1
    ends = np.cumsum(lengths)
    counts = np.empty(positions.shape[0], dtype=np.int64)
    lo = 0
    while lo < positions.shape[0]:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - lengths[lo] + _WINDOW_CHUNK, side="right")))
        span = lengths[lo:hi]
        window = prev[_segment_indices(before[lo:hi] + 1, span)]
        fresh = window <= np.repeat(before[lo:hi], span)
        counts[lo:hi] = np.add.reduceat(
            fresh, np.cumsum(span) - span, dtype=np.int64)
        lo = hi
    return counts


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
