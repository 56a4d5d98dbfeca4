"""Minigraph-Cactus: progressive, reference-seeded graph construction.

Where PGGB aligns everything against everything, Minigraph-Cactus (MC)
builds progressively (Section 2.2): the first genome seeds the graph,
and each further haplotype is mapped against the *current* graph —
minimizer anchors locate the conserved stretches, and the gaps between
anchors are patched with GWFA.  Small divergences are absorbed into the
existing reference nodes (MC's reference bias: only the seed genome is
guaranteed to be spelled exactly by its path); structural divergences
become new alternative-allele nodes bubbled off the reference walk.

The reproduction mirrors that loop:

1. the reference is chopped into fixed-length nodes threaded by a path;
2. each haplotype is seeded against a minimizer index of the current
   graph (:class:`repro.index.minimizer.GraphMinimizerIndex`), anchors
   are chained colinearly, and ``stats.anchors`` counts the chain;
3. between consecutive anchored nodes the haplotype gap is aligned with
   :func:`repro.align.gwfa.gwfa_align` (``stats.gwfa_invocations``); low
   divergence threads the reference nodes, high divergence inserts an
   alt node (``stats.variants`` counts both kinds of discovered sites).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.gwfa import gwfa_align
from repro.build.gfaffix import PolishStats, polish
from repro.errors import AlignmentError, GraphError
from repro.graph.model import SequenceGraph
from repro.index.minimizer import GraphMinimizerIndex
from repro.obs import trace
from repro.sequence.records import SequenceRecord
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass


@dataclass
class CactusStats:
    """Work counters for one progressive build."""

    anchors: int = 0
    gwfa_invocations: int = 0
    variants: int = 0
    alt_nodes: int = 0
    patched_bases: int = 0


@dataclass
class ProgressiveBuild:
    """The built graph plus construction statistics."""

    graph: SequenceGraph
    stats: CactusStats = field(default_factory=CactusStats)
    polish_stats: PolishStats | None = None


def build_progressive(
    records: list[SequenceRecord],
    run_polish: bool = True,
    probe: MachineProbe = NULL_PROBE,
    node_length: int = 64,
    k: int = 15,
    w: int = 10,
    max_gap: int = 4000,
    divergence_threshold: float = 0.2,
    diagonal_band: int = 2000,
) -> ProgressiveBuild:
    """Progressively build a graph from *records* (first = reference).

    Each subsequent record is anchored and threaded against the current
    graph; with ``run_polish`` the result is GFAffix-polished before
    returning.  The reference path always spells the reference exactly.
    """
    if not records:
        raise GraphError("progressive build needs at least one record")
    stats = CactusStats()
    space = AddressSpace()
    anchor_base = space.alloc(1 << 20)

    with trace.span("cactus/seed"):
        graph, n_reference_nodes = _seed_reference(records[0], node_length)
    for record in records[1:]:
        with trace.span("cactus/thread", {"record": record.name}):
            _thread_haplotype(
                graph, record, n_reference_nodes, node_length, stats, probe,
                anchor_base, k=k, w=w, max_gap=max_gap,
                divergence_threshold=divergence_threshold,
                diagonal_band=diagonal_band,
            )
    polish_stats: PolishStats | None = None
    if run_polish:
        with trace.span("cactus/polish"):
            graph, polish_stats = polish(graph, probe=probe)
    return ProgressiveBuild(graph=graph, stats=stats, polish_stats=polish_stats)


def _seed_reference(
    reference: SequenceRecord, node_length: int
) -> tuple[SequenceGraph, int]:
    """Chop the reference into a node chain threaded by its path."""
    if node_length < 2:
        raise GraphError("node_length must be at least 2")
    graph = SequenceGraph()
    sequence = reference.sequence
    node_ids = []
    for start in range(0, len(sequence), node_length):
        node_id = len(node_ids)
        graph.add_node(node_id, sequence[start : start + node_length])
        node_ids.append(node_id)
    for source, target in zip(node_ids, node_ids[1:]):
        graph.add_edge(source, target)
    graph.add_path(reference.name, node_ids)
    return graph, len(node_ids)


def _thread_haplotype(
    graph: SequenceGraph,
    record: SequenceRecord,
    n_reference_nodes: int,
    node_length: int,
    stats: CactusStats,
    probe: MachineProbe,
    anchor_base: int,
    k: int,
    w: int,
    max_gap: int,
    divergence_threshold: float,
    diagonal_band: int,
) -> None:
    """Map one haplotype onto the current graph and thread its path."""
    # Not the cached graph_minimizer_index: the graph grows between haplotypes.
    index = GraphMinimizerIndex(graph, k=k, w=w)
    seeds = index.seeds_for(record.sequence)
    # Anchor only to reference-backbone nodes: their node ids are their
    # linear order, which gives the chain its coordinate system.  (Alt
    # nodes still participate via the GWFA patching, which walks the
    # whole graph.)
    anchors: list[tuple[int, int]] = []  # (read_pos, reference_pos)
    for seed in seeds:
        probe.load(anchor_base + 16 * (seed.node_id % 4096), 16)
        probe.branch(site=1501,
                     taken=not seed.is_reverse and seed.node_id < n_reference_nodes)
        if seed.is_reverse or seed.node_id >= n_reference_nodes:
            continue
        anchors.append(
            (seed.read_position, seed.node_id * node_length + seed.node_offset)
        )
    chain = _chain_anchors(anchors, probe, diagonal_band)
    stats.anchors += len(chain)

    if not chain:
        # Nothing homologous found: the whole haplotype is one alt node.
        alt = _add_alt_node(graph, record.sequence)
        stats.alt_nodes += 1
        stats.variants += 1
        graph.add_path(record.name, [alt])
        return

    # Reduce the chain to node granularity.  Each anchor's diagonal
    # projects its reference node onto read coordinates: the read span
    # [read_start, read_end) is what the node absorbs.  Keep one span
    # per node, monotone and non-overlapping in both coordinates.
    supported: list[tuple[int, int, int]] = []  # (node, read_start, read_end)
    for read_pos, ref_pos in chain:
        node_id = ref_pos // node_length
        read_start = read_pos - (ref_pos - node_id * node_length)
        read_end = min(len(record.sequence),
                       read_start + len(graph.node(node_id)))
        probe.alu(OpClass.SCALAR_ALU, 4)
        if read_start < 0:
            continue
        if supported and (node_id <= supported[-1][0]
                          or read_start < supported[-1][2]):
            continue
        supported.append((node_id, read_start, read_end))
        probe.store(anchor_base + 16 * (node_id % 4096), 16)

    if not supported:
        alt = _add_alt_node(graph, record.sequence)
        stats.alt_nodes += 1
        stats.variants += 1
        graph.add_path(record.name, [alt])
        return

    path: list[int] = []
    first_node, first_start, _ = supported[0]
    _thread_gap(
        graph, record.sequence[:first_start], None, first_node, path,
        stats, probe, max_gap, divergence_threshold,
    )
    path.append(first_node)
    for (prev_node, _, prev_end), (next_node, next_start, _) in zip(
        supported, supported[1:]
    ):
        gap = record.sequence[prev_end:next_start]
        _thread_gap(
            graph, gap, prev_node, next_node, path,
            stats, probe, max_gap, divergence_threshold,
        )
        path.append(next_node)
    last_node, _, last_end = supported[-1]
    _thread_gap(
        graph, record.sequence[last_end:], last_node, None, path,
        stats, probe, max_gap, divergence_threshold,
    )
    graph.add_path(record.name, path)


def _chain_anchors(
    anchors: list[tuple[int, int]],
    probe: MachineProbe,
    diagonal_band: int,
) -> list[tuple[int, int]]:
    """Greedy colinear chain of (read_pos, ref_pos) anchors.

    Seeds vote a modal diagonal; anchors within the band around it are
    chained monotonically in both coordinates (the cheap stand-in for
    minigraph's 2D DP chaining, adequate for mostly-colinear genomes).
    """
    if not anchors:
        return []
    votes: dict[int, int] = {}
    for read_pos, ref_pos in anchors:
        bucket = (ref_pos - read_pos) // 256
        votes[bucket] = votes.get(bucket, 0) + 1
        probe.alu(OpClass.SCALAR_ALU, 3)
    modal = max(votes, key=lambda bucket: (votes[bucket], -bucket))
    center = modal * 256 + 128
    chain: list[tuple[int, int]] = []
    last_read, last_ref = -1, -1
    for read_pos, ref_pos in sorted(anchors):
        in_band = abs((ref_pos - read_pos) - center) <= diagonal_band
        monotone = read_pos > last_read and ref_pos > last_ref
        probe.branch(site=1502, taken=in_band and monotone)
        if in_band and monotone:
            chain.append((read_pos, ref_pos))
            last_read, last_ref = read_pos, ref_pos
    return chain


def _add_alt_node(graph: SequenceGraph, sequence: str) -> int:
    node_id = max(graph.node_ids()) + 1
    graph.add_node(node_id, sequence)
    return node_id


def _thread_gap(
    graph: SequenceGraph,
    gap: str,
    prev_node: int | None,
    next_node: int | None,
    path: list[int],
    stats: CactusStats,
    probe: MachineProbe,
    max_gap: int,
    divergence_threshold: float,
) -> None:
    """Thread the region between two anchored reference nodes.

    Appends the intermediate steps (reference nodes or an alt node) to
    *path* and records variant/GWFA statistics.  ``prev_node is None``
    marks the haplotype head, ``next_node is None`` the tail.
    """
    if prev_node is None:
        interior = list(range(0, next_node)) if next_node else []
    elif next_node is None:
        interior = list(range(prev_node + 1, _reference_extent(graph, prev_node)))
    else:
        interior = list(range(prev_node + 1, next_node))

    if not gap:
        # Pure deletion of the skipped reference stretch (if any).
        if interior:
            stats.variants += 1
            if prev_node is not None and next_node is not None:
                graph.add_edge(prev_node, next_node)
        return
    if not interior:
        # Pure insertion between adjacent reference nodes.
        alt = _add_alt_node(graph, gap)
        stats.alt_nodes += 1
        stats.variants += 1
        if prev_node is not None:
            graph.add_edge(prev_node, alt)
        if next_node is not None:
            graph.add_edge(alt, next_node)
        path.append(alt)
        return

    reference_span = sum(len(graph.node(n)) for n in interior)
    divergent = True
    if len(gap) <= max_gap and abs(len(gap) - reference_span) <= max(
        32, int(divergence_threshold * max(len(gap), reference_span))
    ):
        try:
            result = gwfa_align(gap, graph, interior[0], 0, probe=probe)
            stats.gwfa_invocations += 1
            stats.patched_bases += len(gap)
            limit = max(2.0, divergence_threshold * max(len(gap), reference_span))
            divergent = result.distance > limit
            probe.branch(site=1503, taken=divergent)
            if not divergent and result.distance > 0:
                stats.variants += 1
        except AlignmentError:
            divergent = True
    if divergent:
        alt = _add_alt_node(graph, gap)
        stats.alt_nodes += 1
        stats.variants += 1
        if prev_node is not None:
            graph.add_edge(prev_node, alt)
        if next_node is not None:
            graph.add_edge(alt, next_node)
        path.append(alt)
    else:
        # Absorb the small divergence into the reference walk (bias).
        path.extend(interior)


def _reference_extent(graph: SequenceGraph, node_id: int) -> int:
    """One past the last reference-chain node reachable from *node_id*
    by consecutive ids (the chopped reference backbone)."""
    current = node_id
    while graph.has_edge(current, current + 1):
        current += 1
    return current + 1
