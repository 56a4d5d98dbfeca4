"""Partial order alignment (POA) and its adaptive-banded variant.

POA aligns a sequence against a DAG of previously aligned sequences and
fuses the alignment back into the DAG; iterating over a set of sequences
yields a consensus.  The paper meets POA twice in graph building
(Section 2.2): Cactus's graph induction is constrained by abPOA (the
adaptive-banded variant) and smoothxg's polishing spends ~80% of its
time in POA.

The implementation uses unit-ish linear gap scores with full traceback;
:func:`abpoa_align` restricts each row to an adaptive band around the
previous row's maximum, trading exactness for the banded work profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import SCALAR, VECTORIZED, check_backend
from repro.errors import AlignmentError
from repro.uarch.events import NULL_PROBE, MachineProbe, OpClass

_NEG_INF = float("-inf")


@dataclass
class _PoaNode:
    base: str
    weight: int
    predecessors: list[int]
    successors: list[int]


@dataclass(frozen=True)
class PoaAlignment:
    """Alignment of a sequence to the POA graph.

    ``pairs`` holds (node_index or None, sequence_index or None) columns:
    (n, s) match/mismatch, (n, None) node skipped (deletion),
    (None, s) inserted base.
    """

    score: float
    pairs: tuple[tuple[int | None, int | None], ...]
    cells_computed: int


class PoaGraph:
    """A partial-order alignment graph built incrementally from sequences."""

    def __init__(
        self,
        match: int = 2,
        mismatch: int = 4,
        gap: int = 4,
        probe: MachineProbe = NULL_PROBE,
        backend: str = VECTORIZED,
    ) -> None:
        if match <= 0 or mismatch < 0 or gap <= 0:
            raise AlignmentError("invalid POA scores")
        check_backend(backend, (SCALAR, VECTORIZED), "PoaGraph",
                      AlignmentError)
        self.match = match
        self.mismatch = mismatch
        self.gap = gap
        self.probe = probe
        self.backend = backend
        self.vectorize = backend == VECTORIZED
        self._nodes: list[_PoaNode] = []
        self.sequences_added = 0
        self.cells_computed = 0

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def add_sequence(self, sequence: str, band: int | None = None) -> PoaAlignment | None:
        """Align *sequence* to the graph and fuse it in.

        Returns the alignment (None for the first sequence).  With *band*
        set, rows are restricted to an adaptive band of that half-width
        around the previous row's best column (abPOA).
        """
        if not sequence:
            raise AlignmentError("empty sequence")
        if not self._nodes:
            previous = None
            for offset, base in enumerate(sequence):
                self._nodes.append(_PoaNode(base, 1, [], []))
                if previous is not None:
                    self._link(previous, offset)
                previous = offset
            self.sequences_added += 1
            return None
        alignment = self.align(sequence, band=band)
        self._fuse(sequence, alignment)
        self.sequences_added += 1
        return alignment

    def align(self, sequence: str, band: int | None = None) -> PoaAlignment:
        """Global-ish alignment of *sequence* to the graph (free start/end
        rows in the graph direction, global in the sequence)."""
        order = self._topological_order()
        m = len(sequence)
        probe = self.probe
        vec = self.vectorize
        # scores[node][j]; row -1 is the virtual origin row.
        origin: list[float] | np.ndarray
        if vec:
            origin = -float(self.gap) * np.arange(m + 1, dtype=np.float64)
            seq_codes = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
            load_blocks: list[np.ndarray] = []
        else:
            origin = [0.0] + [-(self.gap) * j for j in range(1, m + 1)]
        scores: dict[int, list[float] | np.ndarray] = {}
        trace: dict[int, list[tuple[int, int]]] = {}  # (pred_node or -1, move)
        # moves: 0 diag, 1 up (graph gap), 2 left (sequence gap)
        windows: dict[int, tuple[int, int]] = {}
        cells = 0
        for node_index in order:
            node = self._nodes[node_index]
            predecessors = [p for p in node.predecessors]
            if band is None:
                lo, hi = 1, m
            else:
                if predecessors:
                    centers = [windows[p] for p in predecessors if p in windows]
                    lo = max(1, min(c[0] for c in centers))
                    hi = min(m, max(c[1] for c in centers) + 1)
                else:
                    lo, hi = 1, min(m, 2 * band + 1)
            sources = predecessors or [-1]
            best_first = max(
                (origin[0] if p == -1 else scores[p][0]) for p in sources
            )
            best_pred_0 = max(sources, key=lambda p: origin[0] if p == -1 else scores[p][0])
            if vec:
                row, row_trace = self._row_vec(
                    node_index, node, sources, seq_codes,
                    origin, scores, lo, hi, m,
                    best_first - self.gap, load_blocks,
                )
                row_trace[0] = (best_pred_0, 1)
                cells += max(0, hi - lo + 1)
                scores[node_index] = row
                trace[node_index] = row_trace
                best_j = int(np.argmax(row))
            else:
                row = [_NEG_INF] * (m + 1)
                row_trace = [(-2, -2)] * (m + 1)
                row[0] = best_first - self.gap
                row_trace[0] = (best_pred_0, 1)
                for j in range(lo, hi + 1):
                    cells += 1
                    probe.alu(OpClass.SCALAR_ALU, 6)
                    best = _NEG_INF
                    best_move = (-2, -2)
                    sub = self.match if node.base == sequence[j - 1] else -self.mismatch
                    for p in sources:
                        p_row = origin if p == -1 else scores[p]
                        probe.load((p + 2) * 4096 + j * 4, 4)
                        diag = p_row[j - 1] + sub
                        if diag > best:
                            best = diag
                            best_move = (p, 0)
                        up = p_row[j] - self.gap
                        if up > best:
                            best = up
                            best_move = (p, 1)
                    left = row[j - 1] - self.gap
                    if left > best:
                        best = left
                        best_move = (node_index, 2)
                    row[j] = best
                    row_trace[j] = best_move
                scores[node_index] = row
                trace[node_index] = row_trace
                finite = [j for j in range(m + 1) if row[j] > _NEG_INF]
                best_j = max(finite, key=lambda j: row[j])
            if band is not None:
                windows[node_index] = (max(1, best_j - band), min(m, best_j + band))
        self.cells_computed += cells
        if vec:
            # One block per align() call: same addresses and op totals as
            # the per-cell reference, coarser interleaving.
            if load_blocks:
                probe.load_block(np.concatenate(load_blocks), 4)
            probe.alu_bulk(OpClass.SCALAR_ALU, 6 * cells)

        # Best end: highest score at j = m over all sink-ish nodes (free
        # end in the graph direction: any node may end the alignment).
        end_node = max(scores, key=lambda n: scores[n][m])
        pairs = self._traceback(sequence, scores, trace, end_node, origin)
        return PoaAlignment(
            score=float(scores[end_node][m]), pairs=tuple(pairs), cells_computed=cells
        )

    def _row_vec(
        self,
        node_index: int,
        node: _PoaNode,
        sources: list[int],
        seq_codes: np.ndarray,
        origin: np.ndarray,
        scores: dict[int, "list[float] | np.ndarray"],
        lo: int,
        hi: int,
        m: int,
        row0: float,
        load_blocks: list[np.ndarray],
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """One DP row as whole-row numpy ops, bit-identical to the scalar
        cell loop.

        All scores are integer-valued float64 (or -inf), so the
        arithmetic is exact; the left-gap chain
        ``row[j] = max(base[j], row[j-1] - gap)`` becomes a running
        maximum of ``base[j] + j*gap``; first-max ``argmax`` over the
        candidate rows reproduces the strict-``>`` precedence
        (diag/up per source in order, then left).
        """
        row = np.full(m + 1, _NEG_INF, dtype=np.float64)
        row[0] = row0
        row_trace: list[tuple[int, int]] = [(-2, -2)] * (m + 1)
        if hi < lo:
            return row, row_trace
        gap = float(self.gap)
        width = hi - lo + 1
        j_arr = np.arange(lo, hi + 1, dtype=np.float64)
        sub = np.where(
            seq_codes[lo - 1:hi] == ord(node.base),
            float(self.match), -float(self.mismatch),
        )
        src_arr = np.asarray(sources, dtype=np.int64)
        candidates = np.empty((2 * len(sources), width), dtype=np.float64)
        for s, p in enumerate(sources):
            p_row = np.asarray(origin if p == -1 else scores[p])
            candidates[2 * s] = p_row[lo - 1:hi] + sub
            candidates[2 * s + 1] = p_row[lo:hi + 1] - gap
        base_best = candidates.max(axis=0)
        base_arg = candidates.argmax(axis=0)
        # Left-gap chain via max-plus prefix scan (exact: integer-valued
        # floats; -inf propagates).
        scan = np.empty(width + 1, dtype=np.float64)
        scan[0] = row[lo - 1] + gap * (lo - 1)
        scan[1:] = base_best + gap * j_arr
        np.maximum.accumulate(scan, out=scan)
        row[lo:hi + 1] = scan[1:] - gap * j_arr
        prev_final = scan[:-1] - gap * (j_arr - 1)
        left_wins = (prev_final - gap) > base_best
        dead = np.isneginf(row[lo:hi + 1])
        preds = np.where(left_wins, node_index, src_arr[base_arg >> 1])
        moves = np.where(left_wins, 2, base_arg & 1)
        preds[dead] = -2
        moves[dead] = -2
        row_trace[lo:hi + 1] = zip(preds.tolist(), moves.tolist())
        # The same (source, column) load addresses the per-cell loop
        # emits, j-major then source-minor.
        cols = 4 * np.arange(lo, hi + 1, dtype=np.int64)
        load_blocks.append(np.add.outer(cols, (src_arr + 2) * 4096).ravel())
        return row, row_trace

    def consensus(self) -> str:
        """Heaviest path through the graph (by node weight then edge)."""
        order = self._topological_order()
        best: dict[int, float] = {}
        back: dict[int, int] = {}
        for node_index in order:
            node = self._nodes[node_index]
            incoming = [(best[p], p) for p in node.predecessors if p in best]
            if incoming:
                value, parent = max(incoming)
                best[node_index] = value + node.weight
                back[node_index] = parent
            else:
                best[node_index] = float(node.weight)
        end = max(best, key=lambda n: best[n])
        path = [end]
        while path[-1] in back:
            path.append(back[path[-1]])
        path.reverse()
        return "".join(self._nodes[n].base for n in path)

    # ------------------------------------------------------------------

    def _link(self, source: int, target: int) -> None:
        if target not in self._nodes[source].successors:
            self._nodes[source].successors.append(target)
            self._nodes[target].predecessors.append(source)

    def _topological_order(self) -> list[int]:
        in_degree = [len(node.predecessors) for node in self._nodes]
        ready = [i for i, d in enumerate(in_degree) if d == 0]
        order: list[int] = []
        while ready:
            node_index = ready.pop()
            order.append(node_index)
            for successor in self._nodes[node_index].successors:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self._nodes):
            raise AlignmentError("POA graph became cyclic")
        return order

    def _traceback(
        self,
        sequence: str,
        scores: dict[int, list[float]],
        trace: dict[int, list[tuple[int, int]]],
        end_node: int,
        origin: list[float],
    ) -> list[tuple[int | None, int | None]]:
        pairs: list[tuple[int | None, int | None]] = []
        node_index = end_node
        j = len(sequence)
        while node_index != -1 and not (node_index == -1 and j == 0):
            predecessor, move = trace[node_index][j]
            if move == 0:
                pairs.append((node_index, j - 1))
                node_index = predecessor
                j -= 1
            elif move == 1:
                pairs.append((node_index, None))
                node_index = predecessor
            elif move == 2:
                pairs.append((None, j - 1))
                j -= 1
            else:
                break
        while j > 0:
            pairs.append((None, j - 1))
            j -= 1
        pairs.reverse()
        return pairs

    def _fuse(self, sequence: str, alignment: PoaAlignment) -> None:
        """Merge an alignment into the graph, adding nodes for novelties."""
        previous: int | None = None
        for node_index, seq_index in alignment.pairs:
            current: int | None = None
            if node_index is not None and seq_index is not None:
                if self._nodes[node_index].base == sequence[seq_index]:
                    self._nodes[node_index].weight += 1
                    current = node_index
                else:
                    current = self._new_node(sequence[seq_index])
            elif seq_index is not None:
                current = self._new_node(sequence[seq_index])
            # Deletions ((node, None)) consume no sequence base; skip.
            if current is not None:
                if previous is not None:
                    self._link(previous, current)
                previous = current

    def _new_node(self, base: str) -> int:
        self._nodes.append(_PoaNode(base, 1, [], []))
        return len(self._nodes) - 1


def poa_consensus(
    sequences: list[str],
    match: int = 2,
    mismatch: int = 4,
    gap: int = 4,
    band: int | None = None,
    probe: MachineProbe = NULL_PROBE,
) -> tuple[str, int]:
    """Consensus of *sequences* via POA; returns (consensus, cells)."""
    if not sequences:
        raise AlignmentError("poa_consensus needs at least one sequence")
    graph = PoaGraph(match=match, mismatch=mismatch, gap=gap, probe=probe)
    for sequence in sequences:
        graph.add_sequence(sequence, band=band)
    return graph.consensus(), graph.cells_computed


def abpoa_align(
    sequences: list[str],
    band: int = 32,
    probe: MachineProbe = NULL_PROBE,
) -> tuple[str, int]:
    """Adaptive-banded POA consensus (Gao et al.'s abPOA, simplified)."""
    return poa_consensus(sequences, band=band, probe=probe)
