"""GSSW: graph SIMD Smith–Waterman (Zhao et al., used by vg map).

Aligns a short query to an *acyclic* subgraph extracted around seed hits.
Inside a node the computation is striped SIMD Smith–Waterman; at node
entry the H and E columns are seeded with the element-wise maximum over
the node's parents' final columns (Figure 4a's red arrows) — exact,
because max distributes over the affine-gap recurrences.

The paper's two key GSSW observations are both modelled here:

* the algorithm alternates dense SIMD regions with indirect graph
  accesses (the parent-merge), and
* unlike linear SSW it keeps *every* node's full DP matrix live and
  performs swizzle writes from packed SIMD buffers into it
  (``store_full_matrix``), the source of its ~3x memory stalls in the
  Figure 10 case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.align.scoring import AffineScoring, VG_DEFAULT
from repro.align.striped import (
    NEG_INF,
    ColumnTrace,
    base_codes,
    lazy_f_alu,
    lazy_f_branches,
    lazy_f_scalar,
    lockstep,
    lockstep_groups,
    segment_length,
    striped_profile,
)
from repro.backends import (
    SCALAR,
    VECTORIZED,
    check_backend,
    report_backend_fallback,
)
from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.graph.ops import topological_sort
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass


@dataclass(frozen=True)
class GraphAlignmentResult:
    """Best local alignment of a query into a graph."""

    score: int
    end_node: int
    end_offset: int
    query_end: int
    cells_computed: int


def graph_smith_waterman_scalar(
    query: str,
    graph: SequenceGraph,
    scoring: AffineScoring = VG_DEFAULT,
) -> GraphAlignmentResult:
    """Scalar affine-gap local alignment to a DAG.  Correctness oracle."""
    if not query:
        raise AlignmentError("empty query")
    order = topological_sort(graph)
    m = len(query)
    open_cost = scoring.gap_open + scoring.gap_extend
    extend_cost = scoring.gap_extend

    final_h: dict[int, np.ndarray] = {}
    final_e: dict[int, np.ndarray] = {}
    best = 0
    best_node = best_offset = best_q = 0
    cells = 0
    for node_id in order:
        node = graph.node(node_id)
        parents = graph.predecessors(node_id)
        if parents:
            h_prev = np.maximum.reduce([final_h[p] for p in parents])
            e_prev = np.maximum.reduce([final_e[p] for p in parents])
        else:
            h_prev = np.zeros(m + 1, dtype=np.int64)
            e_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
        for offset, base in enumerate(node.sequence):
            h_curr = np.zeros(m + 1, dtype=np.int64)
            e_curr = np.full(m + 1, NEG_INF, dtype=np.int64)
            f = NEG_INF
            for i in range(1, m + 1):
                e_curr[i] = max(h_prev[i] - open_cost, e_prev[i] - extend_cost)
                f = max(h_curr[i - 1] - open_cost, f - extend_cost)
                diag = h_prev[i - 1] + scoring.substitution(query[i - 1], base)
                h = max(0, diag, e_curr[i], f)
                h_curr[i] = h
                if h > best:
                    best, best_node, best_offset, best_q = h, node_id, offset, i
            h_prev, e_prev = h_curr, e_curr
            cells += m
        final_h[node_id] = h_prev
        final_e[node_id] = e_prev
    return GraphAlignmentResult(
        score=int(best),
        end_node=best_node,
        end_offset=best_offset,
        query_end=best_q,
        cells_computed=cells,
    )


class GSSW:
    """Striped graph Smith–Waterman with a reusable query profile.

    Args:
        query: Query sequence (a read fragment, ~150 bp in the paper).
        scoring: Affine scheme (vg's 1/4/6/1 by default).
        lanes: SIMD lanes per vector word.
        probe: Optional machine probe.
        store_full_matrix: Model GSSW's full-matrix swizzle writes (on by
            default; linear SSW's two-column working set is the off case).
    """

    LANE_BYTES = 2

    def __init__(
        self,
        query: str,
        scoring: AffineScoring = VG_DEFAULT,
        lanes: int = 8,
        probe: MachineProbe = NULL_PROBE,
        store_full_matrix: bool = True,
        address_space: AddressSpace | None = None,
        backend: str = VECTORIZED,
    ) -> None:
        if not query:
            raise AlignmentError("empty query")
        if lanes < 2:
            raise AlignmentError("need at least 2 SIMD lanes")
        self.query = query
        self.scoring = scoring
        self.lanes = lanes
        self.probe = probe
        self.store_full_matrix = store_full_matrix
        self.segment_length = segment_length(len(query), lanes)
        self._space = address_space or AddressSpace()
        self._word_bytes = lanes * self.LANE_BYTES
        self._profile_base = self._space.alloc(4 * self.segment_length * self._word_bytes)
        self._graph_base = self._space.alloc(1 << 16)
        self._profile = striped_profile(query, scoring, lanes)
        # Per-column striped-row addresses and swizzle scatter offsets are
        # the same for every column; precompute them once for block emission.
        self._profile_row = self._profile_base + self._word_bytes * np.arange(
            self.segment_length, dtype=np.int64
        )
        # Lane l / segment s holds query position l*seg + s, so walking
        # lanes then segments visits query positions 0..len(query)-1.
        self._swizzle_positions = np.arange(len(query), dtype=np.int64)
        # The lock-step engine needs open >= extend so that the in-column
        # F recurrence collapses to a max-plus prefix scan; an incompatible
        # scheme downgrades to the scalar reference and says so on the
        # kernel.backend_fallback counter.
        check_backend(backend, (SCALAR, VECTORIZED), "GSSW", AlignmentError)
        self.backend = backend
        open_cost = scoring.gap_open + scoring.gap_extend
        self.vectorize = (backend == VECTORIZED
                          and open_cost >= scoring.gap_extend)
        if backend == VECTORIZED and not self.vectorize:
            self.backend = SCALAR
            report_backend_fallback("gssw", requested=VECTORIZED,
                                    actual=SCALAR,
                                    reason="scoring-incompatible")

    def align(self, graph: SequenceGraph) -> GraphAlignmentResult:
        """Local-align the query to an acyclic *graph*.

        The lock-step engine computes the columns; the probe events are
        accumulated per :meth:`align` call so the trace machine sees a
        few large blocks instead of thousands of tiny ones.  Addresses,
        op totals, branch streams and results are identical to the
        scalar reference; only the block interleaving differs (covered
        by the 1.6.0 result-store version bump).
        """
        if self.vectorize:
            return _align_group([self], [graph])[0]
        return self._align_reference(graph)

    def _emit(self, graph: SequenceGraph, order: list[int],
              trace: ColumnTrace) -> None:
        """Report one alignment's events as end-of-:meth:`align` blocks."""
        seg = self.segment_length
        probe = self.probe
        word_bytes = self._word_bytes
        region = seg * word_bytes
        touch_full = region // 64
        touch_tail = region - touch_full * 64
        touch_lines = 64 * np.arange(touch_full, dtype=np.int64)

        matrix_base: dict[int, int] = {}
        columns = 0
        merge_alu = 0
        adj_addrs: list[int] = []
        touch_line_blocks: list[np.ndarray] = []
        touch_tail_addrs: list[int] = []
        seq_blocks: list[np.ndarray] = []
        store_blocks: list[np.ndarray] = []

        for node_id in order:
            length = len(graph.node(node_id))
            parents = graph.predecessors(node_id)
            if parents:
                # Node initialization: indirect graph accesses to each
                # parent's stored final column.
                adj_addrs.append(self._graph_base + node_id * 64)
                for parent in parents:
                    base = matrix_base[parent]
                    if touch_full:
                        touch_line_blocks.append(base + touch_lines)
                    if touch_tail > 0:
                        touch_tail_addrs.append(base + touch_full * 64)
                merge_alu += 2 * len(parents) * seg
            base_address = self._space.alloc(length * seg * word_bytes)
            matrix_base[node_id] = base_address
            sequence_base = self._space.alloc(length)
            seq_blocks.append(sequence_base + np.arange(length, dtype=np.int64))
            if self.store_full_matrix:
                # The packed columns scattered into the row-major node
                # matrix: consecutive stores stride by the node length.
                row_stride = length * self.LANE_BYTES
                swizzle_rows = base_address + self._swizzle_positions * row_stride
                offsets = self.LANE_BYTES * np.arange(length, dtype=np.int64)
                store_blocks.append(np.add.outer(offsets, swizzle_rows).ravel())
            columns += length

        if adj_addrs:
            probe.load_block(np.asarray(adj_addrs, dtype=np.int64), 16)
        if touch_line_blocks:
            probe.load_block(np.concatenate(touch_line_blocks), 64)
        if touch_tail_addrs:
            probe.load_block(np.asarray(touch_tail_addrs, dtype=np.int64), touch_tail)
        if seq_blocks:
            probe.load_block(np.concatenate(seq_blocks), 1)
        if columns:
            probe.load_block(np.tile(self._profile_row, columns), word_bytes)
        if store_blocks:
            probe.store_block(np.concatenate(store_blocks), self.LANE_BYTES)
        probe.alu_bulk(
            OpClass.VECTOR_ALU,
            merge_alu + (10 * seg + 1) * columns
            + lazy_f_alu(trace.stops, seg, self.lanes),
            dependent_count=10 * seg * columns,
        )
        probe.branch_trace(11, lazy_f_branches(trace.stops, self.lanes * seg))
        probe.branch_trace(10, trace.improved)

    def _result(self, graph: SequenceGraph, order: list[int],
                trace: ColumnTrace) -> GraphAlignmentResult:
        end_node = end_offset = 0
        if trace.column >= 0:
            ends = np.cumsum([len(graph.node(node_id)) for node_id in order])
            index = int(np.searchsorted(ends, trace.column, side="right"))
            end_node = order[index]
            end_offset = trace.column - (int(ends[index - 1]) if index else 0)
        return GraphAlignmentResult(
            score=trace.score,
            end_node=end_node,
            end_offset=end_offset,
            query_end=trace.query_end(self.segment_length, self.lanes),
            cells_computed=len(self.query) * graph.total_sequence_length,
        )

    def _align_reference(self, graph: SequenceGraph) -> GraphAlignmentResult:
        """Scalar-loop reference with per-column probe emission.

        Kept verbatim as the differential-test oracle for the batched
        path: identical results, op totals and branch streams.
        """
        order = topological_sort(graph)
        seg = self.segment_length
        probe = self.probe
        open_cost = self.scoring.gap_open + self.scoring.gap_extend
        extend_cost = self.scoring.gap_extend

        final_h: dict[int, np.ndarray] = {}
        final_e: dict[int, np.ndarray] = {}
        matrix_base: dict[int, int] = {}
        best = 0
        best_node = best_offset = best_q = 0
        cells = 0
        improved_flags: list[bool] = []
        stops: list[int] = []

        for node_id in order:
            node = graph.node(node_id)
            parents = graph.predecessors(node_id)
            # Node initialization: indirect graph accesses to each parent's
            # stored final column (the non-SIMD phase the paper describes).
            if parents:
                probe.load(self._graph_base + node_id * 64, 16)  # adjacency
                h_cols = []
                e_cols = []
                for parent in parents:
                    probe.touch_region(matrix_base[parent], seg * self._word_bytes)
                    h_cols.append(final_h[parent])
                    e_cols.append(final_e[parent])
                h_prev = np.maximum.reduce(h_cols)
                e_prev = np.maximum.reduce(e_cols)
                probe.alu(OpClass.VECTOR_ALU, 2 * len(parents) * seg)
            else:
                h_prev = np.zeros((seg, self.lanes), dtype=np.int64)
                e_prev = np.full((seg, self.lanes), NEG_INF, dtype=np.int64)
            base_address = self._space.alloc(len(node) * seg * self._word_bytes)
            matrix_base[node_id] = base_address

            h_store = h_prev
            e = e_prev
            sequence_base = self._space.alloc(len(node))
            probe.load_block(
                sequence_base + np.arange(len(node), dtype=np.int64), 1
            )
            row_stride = len(node) * self.LANE_BYTES
            swizzle_rows = base_address + self._swizzle_positions * row_stride
            for offset, code in enumerate(base_codes(node.sequence)):
                h_store, e = self._column(
                    h_store, e, self._profile[code], open_cost, extend_cost,
                    stops,
                )
                cells += len(self.query)
                if self.store_full_matrix:
                    # Scatter the packed column into the row-major node
                    # matrix: consecutive stores stride by the node length —
                    # the poor-locality writeback VTune blames for GSSW's
                    # memory stalls.
                    probe.store_block(
                        swizzle_rows + offset * self.LANE_BYTES, self.LANE_BYTES
                    )
                column_best = int(h_store.max())
                improved = column_best > best
                improved_flags.append(improved)
                if improved:
                    best = column_best
                    best_node = node_id
                    best_offset = offset
                    segment, lane = np.unravel_index(
                        int(h_store.argmax()), h_store.shape
                    )
                    best_q = int(lane) * seg + int(segment) + 1
            final_h[node_id] = h_store
            final_e[node_id] = e
        stops = np.asarray(stops, dtype=np.int64)
        probe.branch_trace(11, lazy_f_branches(stops, self.lanes * seg))
        probe.alu_bulk(OpClass.VECTOR_ALU, lazy_f_alu(stops, seg, self.lanes))
        probe.branch_trace(10, improved_flags)
        return GraphAlignmentResult(
            score=int(best),
            end_node=best_node,
            end_offset=best_offset,
            query_end=best_q,
            cells_computed=cells,
        )

    def _column(
        self,
        h_prev: np.ndarray,
        e_prev: np.ndarray,
        profile: np.ndarray,
        open_cost: int,
        extend_cost: int,
        stops: list[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One striped SW column given the previous column (striped layout).

        Lazy-F's exit step is appended to *stops*; its branches and
        vector-op counts are flushed as one block per :meth:`align` call.
        """
        seg = self.segment_length
        probe = self.probe
        h_store = np.zeros((seg, self.lanes), dtype=np.int64)
        e = np.empty((seg, self.lanes), dtype=np.int64)

        h = np.empty(self.lanes, dtype=np.int64)
        h[0] = 0
        h[1:] = h_prev[seg - 1, : self.lanes - 1]
        f = np.full(self.lanes, NEG_INF, dtype=np.int64)

        for segment in range(seg):
            h = h + profile[segment]
            np.maximum(h, e_prev_col(e_prev, segment, open_cost, extend_cost, h_prev), out=h)
            np.maximum(h, f, out=h)
            np.maximum(h, 0, out=h)
            h_store[segment] = h
            e[segment] = np.maximum(h_prev[segment] - open_cost, e_prev[segment] - extend_cost)
            f = np.maximum(h - open_cost, f - extend_cost)
            h = h_prev[segment].copy()
        probe.load_block(self._profile_row, self._word_bytes)
        # 1 lane shift + 10 dependent vector ops per segment.
        probe.alu(OpClass.VECTOR_ALU, 10 * seg, dependent=True)
        probe.alu(OpClass.VECTOR_ALU, 1)

        stops.append(lazy_f_scalar(h_store, f, open_cost, extend_cost))
        return h_store, e


def e_prev_col(
    e_prev: np.ndarray,
    segment: int,
    open_cost: int,
    extend_cost: int,
    h_prev: np.ndarray,
) -> np.ndarray:
    """Current-column E for *segment*: gap opened or extended from the left."""
    return np.maximum(h_prev[segment] - open_cost, e_prev[segment] - extend_cost)


def _align_group(aligners: Sequence[GSSW],
                 graphs: Sequence[SequenceGraph]) -> list[GraphAlignmentResult]:
    """Align ``graphs[i]`` with ``aligners[i]`` (one scoring, lanes and
    segment length) lock-step, then emit each alignment's events in
    order."""
    orders = [topological_sort(graph) for graph in graphs]
    layouts = []
    codes = []
    for graph, order in zip(graphs, orders):
        index = {node_id: i for i, node_id in enumerate(order)}
        layouts.append([
            (len(graph.node(node_id)),
             tuple(index[parent] for parent in graph.predecessors(node_id)))
            for node_id in order
        ])
        codes.append(base_codes(
            "".join(graph.node(node_id).sequence for node_id in order)))
    traces = lockstep([aligner._profile for aligner in aligners], codes,
                      layouts, aligners[0].scoring, e_from_previous=True)
    results = []
    for aligner, graph, order, trace in zip(aligners, graphs, orders, traces):
        aligner._emit(graph, order, trace)
        results.append(aligner._result(graph, order, trace))
    return results


def gssw_align_many(
    items: Iterable[tuple[str, SequenceGraph]],
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
    store_full_matrix: bool = True,
    backend: str = VECTORIZED,
) -> Iterator[GraphAlignmentResult]:
    """GSSW over ``(query, graph)`` items, lock-step in groups.

    Yields one result per item, in order, and emits the probe stream of
    building a :class:`GSSW` per item on *probe* and aligning its graph.
    *items* is consumed lazily, a group at a time.
    """
    aligned = ((GSSW(query, scoring, lanes=lanes, probe=probe,
                     store_full_matrix=store_full_matrix, backend=backend),
                graph)
               for query, graph in items)
    for group in lockstep_groups(aligned, lambda item: item[0].segment_length):
        aligners, graphs = zip(*group)
        if aligners[0].vectorize:
            yield from _align_group(aligners, graphs)
        else:
            for aligner, graph in group:
                yield aligner._align_reference(graph)


def gssw_align(
    query: str,
    graph: SequenceGraph,
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
) -> GraphAlignmentResult:
    """One-shot GSSW alignment (profile built per call)."""
    return GSSW(query, scoring, lanes=lanes, probe=probe).align(graph)
