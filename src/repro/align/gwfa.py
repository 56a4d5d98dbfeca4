"""GWFA: the graph wavefront algorithm (Zhang et al. 2022, minigraph).

Bridges the gap between two anchors during chaining: given a start
position in the graph, it finds the cheapest (unit-cost) alignment of the
query along *some* walk.  Each node conceptually owns its own DP matrix
(query on one axis, node sequence on the other); wavefront diagonals live
inside a node and, on reaching the node end, expand into every child
node's matrix (Figure 4e) — producing the scattered, irregular diagonal
set the paper highlights, while still computing far fewer cells than full
DP.

States are (node, diagonal) pairs holding the furthest-reaching query
offset; diagonal ``k = j - i`` with ``j`` the query offset and ``i`` the
offset inside the node.  The start position is modelled as a virtual
node holding the start node's suffix, so cycles re-entering the start
node see its full sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.uarch.events import NULL_PROBE, MachineProbe, OpClass

_NONE = -(10**9)
_START = -1  # virtual node id for the trimmed start node
#: Simulated match loop-back outcomes for a trained run of 0-3 matches.
_MATCH_RUNS = ((False,), (True, False), (True, True, False), (True, True, True, False))


@dataclass
class GWFAStats:
    """Work counters for one GWFA run."""

    scores: int = 0
    states_processed: int = 0
    expansions: int = 0          # diagonal spills into child nodes
    cells_extended: int = 0
    max_frontier: int = 0


@dataclass(frozen=True)
class GWFAResult:
    """Best unit-cost alignment of the query along some walk."""

    distance: int
    end_node: int
    end_offset: int
    stats: GWFAStats = field(compare=False, default_factory=GWFAStats)


class _NodeTable(dict):
    """Per-run node table, resolved on first use: id -> (sequence, length,
    sorted successors, their probe addresses, their dispatch outcomes)."""

    def __init__(self, graph: SequenceGraph) -> None:
        super().__init__()
        self.graph = graph

    def __missing__(self, node_id: int) -> tuple:
        sequence = self.graph.node(node_id).sequence
        children = self.graph.successors(node_id)
        self[node_id] = entry = (
            sequence, len(sequence), children, [child * 64 for child in children],
            [((child * 2654435761) >> 13) & 1 == 1 for child in children])
        return entry


class _GWFARun:
    """One GWFA alignment: query vs graph from a fixed start position.

    Frontier states keep ``0 <= i <= len(node)`` and ``0 <= j <= m``; a
    wavefront expands only states with ``j < m`` (one at ``m`` ends the
    run).  Labels are never empty, so no child's entry is its end.
    """

    def __init__(self, query: str, graph: SequenceGraph, start_node: int,
                 start_offset: int, probe: MachineProbe,
                 max_score: int | None) -> None:
        if not query:
            raise AlignmentError("empty query")
        node = graph.node(start_node)
        if not 0 <= start_offset < len(node):
            raise AlignmentError(f"start offset {start_offset} out of range"
                                 f" for node {start_node}")
        self.query = query
        self.start_node = start_node
        self.start_offset = start_offset
        self.probe = probe
        self.limit = max_score if max_score is not None else 2 * len(query) + 16
        self.stats = GWFAStats()
        self._nodes = _NodeTable(graph)
        suffix = node.sequence[start_offset:]
        self._nodes[_START] = (suffix, len(suffix)) + self._nodes[start_node][2:]

    def run(self) -> GWFAResult:
        frontier: dict[tuple[int, int], int] = {(_START, 0): 0}
        reached = self._extend_all(frontier)
        score = 0
        while not reached:
            if score >= self.limit:
                raise AlignmentError(f"gwfa exceeded max score {self.limit}")
            score += 1
            self.stats.scores += 1
            frontier = self._next_wavefront(frontier)
            if not frontier:
                raise AlignmentError("gwfa wavefront died")
            reached = self._extend_all(frontier)
            self.stats.max_frontier = max(self.stats.max_frontier, len(frontier))
        m = len(self.query)
        end_node, end_k, end_j = next((node_id, k, j) for (node_id, k), j
                                      in frontier.items() if j >= m)
        if end_node == _START:
            end_node, end_k = self.start_node, end_k - self.start_offset
        return GWFAResult(score, end_node, end_j - end_k, self.stats)

    def _extend_all(self, frontier: dict[tuple[int, int], int]) -> bool:
        """Greedy match extension, cascading node-end expansions (cost 0);
        True once a state has consumed the whole query.  Events flush as
        one block per wavefront, the kernel's natural batch size."""
        query = self.query
        m = len(query)
        nodes = self._nodes
        get = frontier.get
        worklist = list(frontier.items())
        state_loads: list[int] = []
        child_loads: list[int] = []
        child_branches: list[bool] = []
        match_outcomes: list[bool] = []
        cells = halves = match_bulk = expansions = 0
        reached = False
        while worklist:
            key, j = worklist.pop()
            node_id, k = key
            sequence, length, children, loads, branches = nodes[node_id]
            state_loads.append(abs(node_id) * 64)
            i = j - k
            start_j = j
            while i < length and j < m and sequence[i] == query[j]:
                i += 1
                j += 1
            advanced = j - start_j
            cells += advanced
            # Half a compare/advance op per character, at least one.
            halves += advanced >> 1 or 1
            # The match loop-back branch: boundary outcomes simulated,
            # the saturated middle credited in bulk (like branch_run).
            trained = 3 if advanced > 3 else advanced
            match_outcomes += _MATCH_RUNS[trained]
            match_bulk += advanced - trained
            if advanced:  # frontier[key] held the popped j: no key is queued twice
                frontier[key] = j
            if j >= m:
                reached = True
            elif i == length:
                # Node exhausted: spill this diagonal into each child.
                # The child dispatch is data-dependent control divergence
                # (which child, how many), worse for longer queries that
                # cross more nodes (the paper's lr-vs-cr contrast).
                expansions += len(children)
                child_loads += loads
                child_branches += branches
                for child in children:
                    child_key = (child, j)  # child i' = 0 -> k' = j
                    if j > get(child_key, _NONE):
                        frontier[child_key] = j
                        worklist.append((child_key, j))
        self.stats.cells_extended += cells
        self.stats.expansions += expansions
        probe = self.probe
        guards = len(state_loads)
        probe.load_block(state_loads, 8)
        # Wavefront bookkeeping + per-character compare/advance ops.
        probe.alu_bulk(OpClass.SCALAR_ALU, 16 * guards + 8 * cells + halves, halves)
        probe.branch_trace(50, match_outcomes)
        if match_bulk:
            probe.branch_bulk(50, match_bulk)
        # Bounds guards: almost always in-range, well predicted.
        probe.branch_trace(52, [False] * guards)
        probe.branch_trace(54, [False] * guards)
        probe.load_block(child_loads, 8)
        probe.branch_trace(53, child_branches)
        return reached

    def _next_wavefront(self, frontier: dict[tuple[int, int], int]
                        ) -> dict[tuple[int, int], int]:
        """One unit-cost step, offered in this order: mismatch (k, j+1),
        insertion (k+1, j+1), deletion (k-1, j).  A state at a node end
        keeps only its insertion in the node; the same three edits then
        apply to each child matrix, as from its entry (i = 0, k = j)."""
        m = len(self.query)
        nodes = self._nodes
        at_end = self._at_end
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for state, j in frontier.items():
            node_id, k = state
            j1 = j + 1
            entries = (state,)
            if j - k == nodes[node_id][1]:
                at_end(out, node_id, k + 1, j1)
                entries = [(child, j) for child in nodes[node_id][2]]
            for node_id, k in entries:
                # Mismatch and deletion move to i + 1, maybe the node end.
                inside = j - k + 1 < nodes[node_id][1]
                key = (node_id, k)
                if not inside:
                    at_end(out, node_id, k, j1)
                elif j1 > get(key, _NONE):
                    out[key] = j1
                key = (node_id, k + 1)
                if j1 > get(key, _NONE):
                    out[key] = j1
                key = (node_id, k - 1)
                if not inside:
                    at_end(out, node_id, k - 1, j)
                elif j > get(key, _NONE):
                    out[key] = j
        state_loads = [abs(node_id) * 64 + (k % 64) for node_id, k in frontier]
        range_branches = [j < m for j in frontier.values()]  # in range
        states = len(state_loads)
        self.stats.states_processed += states
        self.probe.load_block(state_loads, 8)
        # 20 bound-check ops for the three offers + the 4-deep FR max chain.
        self.probe.alu_bulk(OpClass.SCALAR_ALU, 24 * states, 4 * states)
        self.probe.branch_trace(51, range_branches)
        return out

    def _at_end(self, out: dict[tuple[int, int], int], node_id: int, k: int,
                j: int) -> None:
        """Offer a state that sits at its node's end: while query remains
        it spills into each child's entry; a graph sink keeps it, so
        trailing insertions can still consume the rest of the query."""
        children = self._nodes[node_id][2]
        if j < len(self.query) and children:
            self.stats.expansions += len(children)
            keys = [(child, j) for child in children]
        else:
            keys = [(node_id, k)]
        for key in keys:
            if j > out.get(key, _NONE):
                out[key] = j


def gwfa_align(
    query: str,
    graph: SequenceGraph,
    start_node: int,
    start_offset: int = 0,
    probe: MachineProbe = NULL_PROBE,
    max_score: int | None = None,
) -> GWFAResult:
    """Align all of *query* along walks from (start_node, start_offset).

    The walk's end is free; returns the minimum edit distance, the end
    position of the best walk, and work statistics.  Cycles are allowed.
    """
    run = _GWFARun(query, graph, start_node, start_offset, probe, max_score)
    return run.run()


def graph_edit_distance_from(
    query: str, graph: SequenceGraph, start_node: int, start_offset: int = 0
) -> int:
    """Scalar oracle: min edit distance of *query* along any walk from the
    start position (free end), by label-correcting over base rows."""
    import heapq

    m = len(query)
    rows_seen: set[tuple[int, int]] = {(start_node, start_offset)}
    stack = [(start_node, start_offset)]
    while stack:
        node_id, offset = stack.pop()
        if offset + 1 < len(graph.node(node_id)):
            nxt = [(node_id, offset + 1)]
        else:
            nxt = [(child, 0) for child in graph.successors(node_id)]
        for item in nxt:
            if item not in rows_seen:
                rows_seen.add(item)
                stack.append(item)

    def parents(row: tuple[int, int]) -> list[tuple[int, int]]:
        node_id, offset = row
        if offset > 0:
            candidates = [(node_id, offset - 1)]
        else:
            candidates = [
                (p, len(graph.node(p)) - 1) for p in graph.predecessors(node_id)
            ]
        return [r for r in candidates if r in rows_seen]

    heap = sorted(rows_seen)
    in_queue = set(heap)
    heapq.heapify(heap)
    values: dict[tuple[int, int], list[int]] = {}
    virtual = list(range(m + 1))
    while heap:
        row = heapq.heappop(heap)
        in_queue.discard(row)
        node_id, offset = row
        base = graph.node(node_id).sequence[offset]
        sources = [values[p] for p in parents(row) if p in values]
        if row == (start_node, start_offset):
            sources = sources + [virtual]
        if not sources:
            continue
        new = [0] * (m + 1)
        new[0] = min(source[0] + 1 for source in sources)
        for j in range(1, m + 1):
            best = new[j - 1] + 1
            for source in sources:
                best = min(best, source[j] + 1, source[j - 1] + (query[j - 1] != base))
            new[j] = best
        old = values.get(row)
        if old is None or any(n < o for n, o in zip(new, old)):
            if old is not None:
                new = [min(n, o) for n, o in zip(new, old)]
            values[row] = new
            if offset + 1 < len(graph.node(node_id)):
                children = [(node_id, offset + 1)]
            else:
                children = [(child, 0) for child in graph.successors(node_id)]
            for child in children:
                if child in rows_seen and child not in in_queue:
                    heapq.heappush(heap, child)
                    in_queue.add(child)
    best = m  # all-insertions alignment (empty walk)
    for value in values.values():
        best = min(best, value[m])
    return best
