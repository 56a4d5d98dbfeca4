"""Lock-step striped Smith–Waterman: many alignments, one column per step.

Farrar's striped column (the SSW library's algorithm, and GSSW's inside a
node) is a handful of vector operations on a ``(segments, lanes)`` word
array.  Done one alignment at a time in numpy, nearly all of its cost is
per-call overhead on tiny arrays.  :func:`lockstep` instead advances a
*group* of alignments that share a segment length by one column per
step, as ``(alignments, segments, lanes)`` array operations:

* every alignment's columns are linearised — a linear target is one
  node; a graph's nodes are laid out in topological order, and a node's
  first column starts from the element-wise maximum over its parents'
  stored final H/E columns (roots read a zero slot; short parent lists
  are padded with a ``-inf`` slot);
* lazy-F runs per *pass* over the whole group: one pass computes every
  segment's F at once (``F`` only decreases by ``extend`` down a pass),
  finds each alignment's first non-continuing segment, keeps H only up
  to and including it, and drops the alignments that have exited;
* the DP records, per column, the lazy-F exit step and the column best,
  so the aligners can emit their probe events afterwards in exactly the
  order, and with exactly the payloads, of a one-at-a-time run.

Arithmetic is exact int64, so scores, exit steps and improved flags are
bit-identical to the scalar segment loops the aligners keep as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from repro.align.scoring import AffineScoring

NEG_INF = -(10**9)

#: Most alignments one lock-step group holds.  Bounds the engine's
#: working set — chiefly the node-final columns of a group's graphs —
#: at any scale and in streaming mode.
GROUP_CAP = 32

_ROOT_SLOT = 0  # H = 0, E = -inf: the column before a source node
_PAD_SLOT = 1   # H = E = -inf: the identity of the parent merge

_BASE_CODES = np.zeros(256, dtype=np.intp)
for _code, _base in enumerate("ACGT"):
    _BASE_CODES[ord(_base)] = _code

T = TypeVar("T")


def segment_length(query_length: int, lanes: int) -> int:
    """Segments per striped column: query positions per SIMD lane."""
    return (query_length + lanes - 1) // lanes


def striped_profile(query: str, scoring: AffineScoring, lanes: int) -> np.ndarray:
    """Striped query profile ``profile[base, segment, lane]`` for bases
    A, C, G, T; lane *l*, segment *s* holds query position ``l*seg + s``
    and padding positions score 0."""
    seg = segment_length(len(query), lanes)
    rows = {char: [scoring.substitution(char, base) for base in "ACGT"]
            for char in set(query)}
    scores = np.zeros((lanes * seg, 4), dtype=np.int64)
    scores[: len(query)] = [rows[char] for char in query]
    return np.ascontiguousarray(scores.reshape(lanes, seg, 4).transpose(2, 1, 0))


def base_codes(sequence: str) -> np.ndarray:
    """Profile row per target base; anything but A/C/G/T (an N) scores
    as A, as the SSW library does."""
    raw = np.frombuffer(sequence.encode("ascii", "replace"), dtype=np.uint8)
    return _BASE_CODES[raw]


def lockstep_groups(items: Iterable[T], key: Callable[[T], int]) -> Iterator[list[T]]:
    """Consecutive runs of *items* with equal *key* (the segment
    length), at most :data:`GROUP_CAP` long; consumes *items* lazily."""
    group: list[T] = []
    group_key = None
    for item in items:
        item_key = key(item)
        if group and (item_key != group_key or len(group) == GROUP_CAP):
            yield group
            group = []
        group.append(item)
        group_key = item_key
    if group:
        yield group


@dataclass(frozen=True)
class ColumnTrace:
    """What one alignment's columns did, for emitting its probe events.

    ``stops[j]`` is the number of continuing lazy-F steps before column
    *j*'s exit, or ``lanes * seg`` when its loop never exits;
    ``improved[j]`` says whether column *j* raised the best score.
    ``column``/``cell`` locate the best cell (``cell`` is the flat
    ``segment * lanes + lane`` index); ``column`` is -1 when no column
    scored above 0.
    """

    stops: np.ndarray
    improved: np.ndarray
    score: int
    column: int
    cell: int

    def query_end(self, seg: int, lanes: int) -> int:
        """1-based query position of the best cell (0 without one)."""
        if self.column < 0:
            return 0
        segment, lane = divmod(self.cell, lanes)
        return lane * seg + segment + 1


def lazy_f_branches(stops: np.ndarray, limit: int) -> np.ndarray:
    """The lazy-F exit branch stream: per column, ``stop`` taken
    outcomes and one not-taken, or ``limit`` taken if it never exits."""
    exhausted = stops >= limit
    steps = np.where(exhausted, limit, stops + 1)
    outcomes = np.ones(int(steps.sum()), dtype=bool)
    outcomes[(np.cumsum(steps) - 1)[~exhausted]] = False
    return outcomes


def lazy_f_steps(stops: np.ndarray, seg: int, lanes: int) -> np.ndarray:
    """Segment steps each column's lazy-F loop ran."""
    return np.minimum(stops + 1, lanes * seg)


def lazy_f_alu(stops: np.ndarray, seg: int, lanes: int) -> int:
    """Lazy-F vector ops: one lane shift per pass, four per segment step."""
    passes = np.where(stops >= lanes * seg, lanes, stops // seg + 1)
    return int(passes.sum() + 4 * lazy_f_steps(stops, seg, lanes).sum())


def lazy_f_scalar(h_store: np.ndarray, f: np.ndarray, open_cost: int,
                  extend_cost: int) -> int:
    """Reference lazy-F loop on one column: fixes *h_store* in place and
    returns the exit step (``lanes * seg`` if it never exits)."""
    seg, lanes = h_store.shape
    step = 0
    for _ in range(lanes):
        f = np.concatenate(([np.int64(NEG_INF)], f[:-1]))
        for segment in range(seg):
            np.maximum(h_store[segment], f, out=h_store[segment])
            threshold = h_store[segment] - open_cost
            f = f - extend_cost
            if not bool((f > threshold).any()):
                return step
            step += 1
    return step


def lockstep(
    profiles: list[np.ndarray],
    codes: list[np.ndarray],
    layouts: list[list[tuple[int, tuple[int, ...]]]],
    scoring: AffineScoring,
    e_from_previous: bool,
) -> list[ColumnTrace]:
    """Run a group of striped alignments one column per step.

    Args:
        profiles: Per alignment, a :func:`striped_profile`; all share
            one ``(4, seg, lanes)`` shape.
        codes: Per alignment, the :func:`base_codes` of its columns in
            linearised order.
        layouts: Per alignment, its nodes in that order as ``(length,
            parent indices into the same list)``; a linear target is
            ``[(len(target), ())]``.
        scoring: Affine scheme; needs ``gap_open + gap_extend >=
            gap_extend`` (the max-plus F scan's condition).
        e_from_previous: GSSW's order — E comes from the previous
            column's final H.  Otherwise (SSW's) the next column's E
            comes from this column's H before lazy-F.
    """
    count = len(profiles)
    _, seg, lanes = profiles[0].shape
    open_cost = scoring.gap_open + scoring.gap_extend
    extend = scoring.gap_extend
    lengths = np.array([len(item) for item in codes], dtype=np.intp)
    # Longest first, so the alignments still running at any step are a
    # prefix of the group and every per-step operation works on views.
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max()) if count else 0
    running = np.searchsorted(-lengths[order], -np.arange(steps), side="left")

    table = np.concatenate([profiles[item] for item in order])
    rows = np.zeros((steps, count), dtype=np.intp)
    starts: list[list[tuple[int, list[int]]]] = [[] for _ in range(steps)]
    finals: list[list[tuple[int, int]]] = [[] for _ in range(steps)]
    slot_count = 2
    for position, item in enumerate(order):
        rows[: lengths[item], position] = 4 * position + codes[item]
        layout = layouts[item]
        has_child = [False] * len(layout)
        for _length, parents in layout:
            for parent in parents:
                has_child[parent] = True
        slots = [_PAD_SLOT] * len(layout)
        column = 0
        for node, (length, parents) in enumerate(layout):
            starts[column].append(
                (position, [slots[p] for p in parents] or [_ROOT_SLOT]))
            column += length
            if has_child[node]:
                slots[node] = slot_count
                finals[column - 1].append((position, slot_count))
                slot_count += 1
    start_plan = [_merge_plan(entries) for entries in starts]
    final_plan = [
        (np.array([p for p, _ in entries]), np.array([s for _, s in entries]))
        if entries else None
        for entries in finals
    ]

    h_store = np.zeros((slot_count, seg, lanes), dtype=np.int64)
    h_store[_PAD_SLOT] = NEG_INF
    e_store = np.full((slot_count, seg, lanes), NEG_INF, dtype=np.int64)
    h = np.zeros((count, seg, lanes), dtype=np.int64)
    e = np.full((count, seg, lanes), NEG_INF, dtype=np.int64)
    h_in = np.zeros((count, seg, lanes), dtype=np.int64)  # [:, 0, 0] stays 0
    scan = np.empty((count, seg + 1, lanes), dtype=np.int64)
    scan[:, 0] = NEG_INF
    ramp = extend * np.arange(seg + 1, dtype=np.int64)[:, None]
    scan_offset = ramp[1:] - open_cost
    lazy = _LazyF(count, seg, lanes, open_cost, extend)
    stops = np.empty((steps, count), dtype=np.int64)
    best_cell = np.empty((steps, count), dtype=np.intp)
    column_best = np.empty((steps, count), dtype=np.int64)

    for step in range(steps):
        n = int(running[step])
        hn, en = h[:n], e[:n]
        plan = start_plan[step]
        if plan is not None:
            positions, parent_slots = plan
            hn[positions] = h_store[parent_slots].max(axis=1)
            en[positions] = e_store[parent_slots].max(axis=1)
        if e_from_previous:
            np.maximum(hn - open_cost, en - extend, out=en)
        shifted = h_in[:n]
        shifted[:, 0, 1:] = hn[:, seg - 1, : lanes - 1]
        shifted[:, 1:] = hn[:, : seg - 1]
        cell = shifted + table[rows[step, :n]]
        np.maximum(cell, en, out=cell)
        np.maximum(cell, 0, out=cell)
        # With open >= extend, the in-column recurrence f[s+1] =
        # max(h[s] - open, f[s] - extend) equals max(cell[s] - open,
        # f[s] - extend); g[s] = f[s] + s*extend makes it a running max.
        g = scan[:n]
        np.add(cell, scan_offset, out=g[:, 1:])
        np.maximum.accumulate(g, axis=1, out=g)
        f_all = g - ramp
        np.maximum(cell, f_all[:, :seg], out=hn)
        if not e_from_previous:
            np.maximum(hn - open_cost, en - extend, out=en)
        lazy.run(hn, f_all[:, seg], stops[step, :n])
        flat = hn.reshape(n, seg * lanes)
        flat.argmax(axis=1, out=best_cell[step, :n])
        flat.max(axis=1, out=column_best[step, :n])
        final = final_plan[step]
        if final is not None:
            positions, slots = final
            h_store[slots] = hn[positions]
            e_store[slots] = en[positions]

    traces: list[ColumnTrace | None] = [None] * count
    for position, item in enumerate(order):
        length = lengths[item]
        best = column_best[:length, position]
        running_best = np.maximum.accumulate(np.maximum(best, 0))
        before = np.concatenate(([0], running_best[:-1]))
        improved = best > before
        hits = np.flatnonzero(improved)
        column = int(hits[-1]) if hits.size else -1
        traces[item] = ColumnTrace(
            stops=stops[:length, position].copy(),
            improved=improved,
            score=int(running_best[-1]) if length else 0,
            column=column,
            cell=int(best_cell[column, position]) if hits.size else 0,
        )
    return traces


def _merge_plan(entries: list[tuple[int, list[int]]]):
    """Node starts at one step as (positions, parent slots padded to a
    rectangle with the ``-inf`` slot)."""
    if not entries:
        return None
    width = max(len(slots) for _, slots in entries)
    parent_slots = np.full((len(entries), width), _PAD_SLOT, dtype=np.intp)
    for row, (_, slots) in enumerate(entries):
        parent_slots[row, : len(slots)] = slots
    return np.array([p for p, _ in entries], dtype=np.intp), parent_slots


class _LazyF:
    """Lazy-F for a prefix of the group, one pass at a time.

    Within a pass ``F`` at segment *s* is the pass's entry F minus
    ``s * extend`` — it never reads H — so a pass is whole-array
    arithmetic; only its exit segment is data dependent.
    """

    def __init__(self, count: int, seg: int, lanes: int, open_cost: int,
                 extend: int) -> None:
        self.seg = seg
        self.lanes = lanes
        self.extend = extend
        self.margin = open_cost - extend
        self.ramp = extend * np.arange(seg, dtype=np.int64)[:, None]
        self.segments = np.arange(seg)
        self.shifted = np.full((count, lanes), NEG_INF, dtype=np.int64)

    def run(self, h: np.ndarray, f: np.ndarray, stops: np.ndarray) -> None:
        """Fix the column *h* in place from the scan's outgoing *f*;
        write each alignment's exit step into *stops*."""
        seg = self.seg
        live = None  # all of h, in place
        for lane_pass in range(self.lanes):
            shifted = self.shifted[: len(f)]
            shifted[:, 1:] = f[:, :-1]
            f_pass = shifted[:, None, :] - self.ramp
            h_pass = h if live is None else h[live]
            fixed = np.maximum(h_pass, f_pass)
            # Continue while some lane's next F beats its H - open.
            continuing = (f_pass + self.margin > fixed).any(axis=2)
            exit_segment = continuing.argmin(axis=1)
            exited = ~continuing.all(axis=1)
            last = np.where(exited, exit_segment, seg - 1)
            keep = (self.segments <= last[:, None])[:, :, None]
            if live is None:
                np.copyto(h, fixed, where=keep)
                live = np.arange(len(h))
            else:
                h[live] = np.where(keep, fixed, h_pass)
            stops[live[exited]] = lane_pass * seg + exit_segment[exited]
            if exited.all():
                return
            remaining = ~exited
            live = live[remaining]
            f = f_pass[remaining, seg - 1] - self.extend
        stops[live] = self.lanes * seg
