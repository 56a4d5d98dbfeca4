"""GBV: Graph Myers's bitvector alignment (Rautiainen et al., GraphAligner).

Aligns a (long) query to a possibly *cyclic* graph under unit edit costs.
Each one-base graph position is a DP *row*; a row depends on its parent
rows (the merge across incoming edges, Figure 4b's red arrows) and, on
cyclic graphs, a row's recomputation can improve its own ancestors, so
rows are pushed to a priority queue whenever a parent changes and
reprocessed until scores stabilize — the source of GBV's unpredictable
branching behaviour (Section 5.2).

Rows are stored as 64-cell blocks updated with Myers-style arithmetic;
we keep scores explicit (numpy rows) rather than bit-encoded, preserving
the data flow, the dependence structure, and the queue dynamics, while
the probe reports the kernel's true 64-bit scalar operation mix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass

_BIG = 1 << 30


@dataclass(frozen=True)
class GBVResult:
    """Outcome of a GBV alignment.

    Attributes:
        distance: Best edit distance of the full query against any walk.
        end_node: Node the best walk ends in.
        end_offset: Base offset within ``end_node``.
        rows_computed: Total row evaluations (including recomputations).
        recomputations: Row evaluations beyond the first per row — the
            cyclic-graph stabilization work.
        queue_pushes: Priority-queue pushes.
    """

    distance: int
    end_node: int
    end_offset: int
    rows_computed: int
    recomputations: int
    queue_pushes: int


class GBV:
    """Graph Myers aligner for one query, reusable across graphs.

    A row is ``H(min(cand(V), cand(p1), cand(p2), ...))`` over the
    virtual start row ``V`` and the computed parents ``p_k``, where
    ``cand(p) = min(p + 1, shift(p) + delta)`` and ``H`` is the
    horizontal prefix pass.  ``cand`` is monotone, so the minimum of the
    candidates is the candidate of the minimum: parents (``V``
    included) merge first, then one candidate step runs.  Rows are held
    as ``D[j] - j``, in which ``V`` is all zeros, the diagonal step adds
    ``delta - 1`` and ``H`` is a plain prefix minimum; :meth:`align`
    converts them back before the traceback.
    """

    def __init__(self, query: str, probe: MachineProbe = NULL_PROBE) -> None:
        if not query:
            raise AlignmentError("empty query")
        self.query = query
        self.probe = probe
        m = len(query)
        self._indices = np.arange(m + 1, dtype=np.int64)
        # Per base: the diagonal step delta[j] - 1 for j >= 1 (delta[j] =
        # 1 if query[j-1] != base), and the whole row of a row whose
        # parents are all uncomputed, H(cand(V)) -- constant per query.
        self._diagonal: dict[str, np.ndarray] = {}
        self._start_row: dict[str, np.ndarray] = {}
        for base in "ACGTN":
            diagonal = -np.fromiter((q == base for q in query),
                                    dtype=np.int64, count=m)
            self._diagonal[base] = diagonal
            start = np.ones(m + 1, dtype=np.int64)
            np.minimum(start[1:], diagonal, out=start[1:])
            np.minimum.accumulate(start, out=start)
            start[0] = 0
            self._start_row[base] = start
        self._words = (m + 63) // 64
        # The cells the per-word threshold checks read: words 0, 4, 8...
        # feed site 36 and words 2, 6, 10... site 38.
        self._threshold_cells = np.asarray(
            [min(word * 64 + 63, m) for word in range(0, self._words, 4)]
            + [min(word * 64 + 63, m) for word in range(2, self._words, 4)],
            dtype=np.int64,
        )
        # Merge-branch words: one per full 64 cells, and one word covering
        # the whole row when the query is shorter than that.
        self._merge_words = max(1, (m + 1) // 64)
        self._merge_cells = min(self._merge_words * 64, m + 1)

    def align(self, graph: SequenceGraph) -> GBVResult:
        """Align the query to *graph* (cycles allowed)."""
        rows, row_parents, row_children, row_base = _row_graph(graph)
        m = len(self.query)
        probe = self.probe
        words = self._words
        space = AddressSpace()
        row_bytes = words * 16  # Pv + Mv words
        row_address = [space.alloc(row_bytes) for _ in rows]

        values: list[np.ndarray | None] = [None] * len(rows)
        rows_computed = 0
        queue_pushes = 0
        # Seed the queue with every row in (node, offset) order.
        heap: list[int] = list(range(len(rows)))
        heapq.heapify(heap)
        in_queue = [True] * len(rows)
        queue_pushes += len(rows)

        # The probe never steers control flow, so data-dependent outcomes
        # and addresses accumulate per site and flush as blocks after the
        # stabilization loop instead of one call per word/parent/child.
        parent_loads: list[int] = []
        row_stores: list[int] = []
        merge_branches: list[bool] = []
        changed_branches: list[bool] = []
        queue_branches: list[bool] = []
        # The threshold cells of each row evaluation, grown by doubling.
        threshold_rows = np.empty(
            (2 * len(rows) + 1, len(self._threshold_cells)), dtype=np.int64)
        alu_total = 0
        alu_dependent = 0

        # Scratch rows reused by every row evaluation: the parent merge,
        # the shifted diagonal candidate (cell 0 stays _BIG) and the
        # improvement mask with its per-word view.  Array operands beat
        # scalar ones in numpy's dispatch, hence the zero and one rows.
        zeros = np.zeros(m + 1, dtype=np.int64)
        ones = np.ones(m + 1, dtype=np.int64)
        merged = np.empty(m + 1, dtype=np.int64)
        merged_head = merged[:-1]
        shifted = np.full(m + 1, _BIG, dtype=np.int64)
        shifted_tail = shifted[1:]
        improved = np.empty(m + 1, dtype=bool)
        improved_words = improved[: self._merge_cells].reshape(
            self._merge_words, -1)
        unchanged_words = [False] * self._merge_words
        diagonals = self._diagonal
        diagonal_n = diagonals["N"]
        start_rows = self._start_row
        start_row_n = start_rows["N"]
        threshold_cells = self._threshold_cells
        minimum = np.minimum
        prefix_minimum = np.minimum.accumulate
        less = np.less
        count_nonzero = np.count_nonzero
        heappop = heapq.heappop
        heappush = heapq.heappush

        while heap:
            row = heappop(heap)
            in_queue[row] = False
            # Merge the computed parents with the virtual start row.
            count = 0
            for parent in row_parents[row]:
                parent_value = values[parent]
                if parent_value is None:
                    continue
                parent_loads.append(row_address[parent])
                if count:
                    minimum(merged, parent_value, out=merged)
                else:
                    minimum(parent_value, zeros, out=merged)
                count += 1
            base = row_base[row]
            if count:
                np.add(merged_head, diagonals.get(base, diagonal_n),
                       out=shifted_tail)
                new_value = merged + ones
                minimum(new_value, shifted, out=new_value)
                # Horizontal pass: D[j] = min_k<=j D[k] + (j - k).
                prefix_minimum(new_value, out=new_value)
                new_value[0] = 0
            else:
                new_value = start_rows.get(base, start_row_n).copy()
            # Per parent, the Myers word update is a serial chain of bit
            # operations (carry-propagating adds) with about half its
            # depth overlapping, plus a bitvector merge; the horizontal
            # pass is serial.
            alu_total += (20 * count + 4) * words
            alu_dependent += (7 * count + 4) * words
            # Per-word score/band threshold checks: GraphAligner decides
            # per word whether the block is still under the score band,
            # and the outcome follows the data (the misprediction source
            # of Fig. 6).  They read the row before its merge with the
            # old one.
            if rows_computed == len(threshold_rows):
                threshold_rows = np.concatenate(
                    [threshold_rows, np.empty_like(threshold_rows)])
            threshold_rows[rows_computed] = new_value[threshold_cells]
            rows_computed += 1
            old_value = values[row]
            if old_value is not None:
                less(new_value, old_value, out=improved)
                changed = count_nonzero(improved) > 0
                alu_total += words
                # Per-word merge comparisons: the data-dependent branches
                # of the graph merge step (Section 5.2).
                if changed:
                    merge_branches.extend(improved_words.any(axis=1).tolist())
                    minimum(new_value, old_value, out=new_value)
                else:
                    merge_branches.extend(unchanged_words)
            else:
                changed = True
            changed_branches.append(changed)
            if not changed:
                continue
            values[row] = new_value
            row_stores.append(row_address[row])
            for child in row_children[row]:
                queue_branches.append(not in_queue[child])
                if not in_queue[child]:
                    heappush(heap, child)
                    in_queue[child] = True
                    queue_pushes += 1

        cells = threshold_rows[:rows_computed]
        thresholds = ((cells + threshold_cells) & 3) == 0
        site_36_cells = len(range(0, words, 4))
        probe.load_block(parent_loads, words * 16)
        probe.store_block(row_stores, row_bytes)
        probe.alu_bulk(OpClass.SCALAR_ALU, alu_total, alu_dependent)
        probe.branch_trace(32, merge_branches)
        probe.branch_trace(30, changed_branches)
        probe.branch_trace(31, queue_branches)
        probe.branch_trace(36, thresholds[:, :site_36_cells].ravel().tolist())
        probe.branch_trace(38, thresholds[:, site_36_cells:].ravel().tolist())

        indices = self._indices
        for value in values:
            if value is not None:
                value += indices
        best = _BIG
        best_row = 0
        for row, value in enumerate(values):
            if value is not None and int(value[m]) < best:
                best = int(value[m])
                best_row = row
        self._traceback(values, row_parents, row_address, best_row)
        node_id, offset = rows[best_row]
        return GBVResult(
            distance=best,
            end_node=node_id,
            end_offset=offset,
            rows_computed=rows_computed,
            recomputations=rows_computed - len(rows),
            queue_pushes=queue_pushes,
        )

    def _traceback(
        self,
        values: list[np.ndarray | None],
        row_parents: list[list[int]],
        row_address: list[int],
        end_row: int,
    ) -> None:
        """Walk the optimal path backwards (GraphAligner keeps traceback
        inside the kernel; its direction choices are the data-dependent
        branches the paper's bad-speculation numbers blame)."""
        probe = self.probe
        row = end_row
        j = len(self.query)
        steps = 0
        limit = len(self.query) + len(values) + 8
        while j > 0 and steps < limit:
            steps += 1
            value = values[row]
            if value is None:
                break
            current = int(value[j])
            probe.load(row_address[row] + (j // 64) * 16, 16)
            # Insertion (stay on this row)?
            take_left = int(value[j - 1]) + 1 == current
            probe.branch(site=33, taken=take_left)
            if take_left:
                j -= 1
                continue
            moved = False
            for parent in row_parents[row]:
                parent_value = values[parent]
                if parent_value is None:
                    continue
                probe.load(row_address[parent] + (j // 64) * 16, 16)
                diagonal = int(parent_value[j - 1]) + (0 if current == int(parent_value[j - 1]) else 1)
                take_diag = diagonal >= current and int(parent_value[j - 1]) <= current
                probe.branch(site=34, taken=take_diag)
                if take_diag:
                    row = parent
                    j -= 1
                    moved = True
                    break
                take_up = int(parent_value[j]) + 1 == current
                probe.branch(site=35, taken=take_up)
                if take_up:
                    row = parent
                    moved = True
                    break
            if not moved:
                # Alignment start reached (virtual row).
                break


def _row_graph(
    graph: SequenceGraph,
) -> tuple[list[tuple[int, int]], list[list[int]], list[list[int]], list[str]]:
    """Expand a graph into one-base rows with parent/child lists."""
    rows: list[tuple[int, int]] = []
    row_index: dict[tuple[int, int], int] = {}
    row_base: list[str] = []
    for node_id in sorted(graph.node_ids()):
        sequence = graph.node(node_id).sequence
        for offset, base in enumerate(sequence):
            row_index[(node_id, offset)] = len(rows)
            rows.append((node_id, offset))
            row_base.append(base)
    parents: list[list[int]] = [[] for _ in rows]
    children: list[list[int]] = [[] for _ in rows]
    for node_id in sorted(graph.node_ids()):
        length = len(graph.node(node_id))
        for offset in range(1, length):
            parent = row_index[(node_id, offset - 1)]
            child = row_index[(node_id, offset)]
            parents[child].append(parent)
            children[parent].append(child)
        last = row_index[(node_id, length - 1)]
        for successor in graph.successors(node_id):
            first = row_index[(successor, 0)]
            parents[first].append(last)
            children[last].append(first)
    return rows, parents, children, row_base


def gbv_align(
    query: str, graph: SequenceGraph, probe: MachineProbe = NULL_PROBE
) -> GBVResult:
    """One-shot GBV alignment."""
    return GBV(query, probe=probe).align(graph)


def graph_edit_distance_scalar(query: str, graph: SequenceGraph) -> int:
    """Scalar label-correcting oracle for GBV (cell-by-cell Python loops)."""
    rows, parents, children, row_base = _row_graph(graph)
    m = len(query)
    values: list[list[int] | None] = [None] * len(rows)
    virtual = list(range(m + 1))
    pending = list(range(len(rows)))
    in_queue = [True] * len(rows)
    heapq.heapify(pending)
    while pending:
        row = heapq.heappop(pending)
        in_queue[row] = False
        base = row_base[row]
        sources = [virtual] + [values[p] for p in parents[row] if values[p] is not None]
        new = [0] * (m + 1)
        for j in range(1, m + 1):
            best = _BIG
            for source in sources:
                best = min(best, source[j] + 1, source[j - 1] + (query[j - 1] != base))
            best = min(best, new[j - 1] + 1)
            new[j] = best
        old = values[row]
        if old is None or any(n < o for n, o in zip(new, old)):
            if old is not None:
                new = [min(n, o) for n, o in zip(new, old)]
            values[row] = new
            for child in children[row]:
                if not in_queue[child]:
                    heapq.heappush(pending, child)
                    in_queue[child] = True
    return min(value[m] for value in values if value is not None)
