"""Giraffe: the vg giraffe haplotype-aware short-read mapper model.

Giraffe's signature stage (Figure 2) is *filtering*: clustered seed hits
are extended through the graph gaplessly, but only along walks that are
subpaths of some indexed haplotype — enforced with GBWT ``find``/
``extend`` operations (Section 3, GBWT kernel).  Extensions tolerate a
few mismatches (gapless), so most short reads resolve without any DP and
only the leftovers reach GSSW — which is why giraffe's runtime
concentrates in seeding + filtering rather than alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.chain import ClusterStats, cluster_seeds
from repro.align.gssw import GSSW
from repro.align.scoring import VG_DEFAULT, AffineScoring
from repro.graph.model import SequenceGraph
from repro.graph.ops import local_subgraph
from repro.index.gbwt import ENDMARKER, GBWT
from repro.index.minimizer import Seed, graph_minimizer_index
from repro.sequence.records import Read
from repro.tools.base import MappingResult, ToolRun, check_reads
from repro.uarch.events import NULL_PROBE, MachineProbe


@dataclass
class GiraffeConfig:
    """Tunables (giraffe-like defaults scaled to synthetic data)."""

    k: int = 15
    w: int = 10
    min_cluster_size: int = 2
    max_extensions_per_read: int = 16
    max_mismatches: int = 4
    full_length_bonus: int = 10
    scoring: AffineScoring = VG_DEFAULT


@dataclass(frozen=True)
class HaplotypeExtension:
    """Result of extending one seed along haplotypes."""

    matched_bases: int
    mismatches: int
    full_length: bool
    node_id: int
    node_offset: int
    gbwt_extends: int


class Giraffe:
    """vg giraffe model: minimizers + clustering + GBWT filter + GSSW."""

    def __init__(
        self,
        graph: SequenceGraph,
        config: GiraffeConfig | None = None,
        probe: MachineProbe = NULL_PROBE,
    ) -> None:
        self.graph = graph
        self.config = config or GiraffeConfig()
        self.probe = probe
        self.index = graph_minimizer_index(graph, k=self.config.k, w=self.config.w)
        self.gbwt = GBWT.from_graph(graph)

    # ------------------------------------------------------------------

    def extend_seed(self, sequence: str, seed: Seed) -> HaplotypeExtension:
        """Gapless haplotype-constrained extension of one seed hit.

        Forward from the seed the walk is GBWT-constrained (Figure 4c):
        at each node end only haplotype-consistent successors whose first
        base matches (or costs a mismatch) continue the extension.
        Backward the walk follows graph predecessors.  Extension stops
        when the mismatch budget is exhausted.
        """
        budget = self.config.max_mismatches
        mismatches = 0
        extends = 0

        # Forward pass (GBWT-constrained).
        node_id = seed.node_id
        node = self.graph.node(node_id)
        offset = seed.node_offset
        position = seed.read_position
        state = self.gbwt.full_state(node_id)
        end_node, end_offset = node_id, offset
        while position < len(sequence) and mismatches <= budget:
            if offset >= len(node):
                successors = self.gbwt.successors(state)
                extends += 1
                best_next = None
                for candidate, _count in sorted(successors.items()):
                    if candidate == ENDMARKER:
                        continue
                    if self.graph.node(candidate).sequence[0] == sequence[position]:
                        best_next = candidate
                        break
                if best_next is None:
                    # No matching haplotype continuation: spend a mismatch
                    # on the most frequent one, or stop at a dead end.
                    real = [c for c in successors if c != ENDMARKER]
                    if not real or mismatches >= budget:
                        break
                    best_next = max(real, key=lambda c: successors[c])
                state = self.gbwt.extend(state, best_next)
                extends += 1
                node_id = best_next
                node = self.graph.node(node_id)
                offset = 0
                continue
            if node.sequence[offset] != sequence[position]:
                mismatches += 1
                if mismatches > budget:
                    break
            end_node, end_offset = node_id, offset
            offset += 1
            position += 1
        forward_covered = position - seed.read_position

        # Backward pass (graph-walk; giraffe uses the reverse GBWT here).
        node_id = seed.node_id
        node = self.graph.node(node_id)
        offset = seed.node_offset - 1
        position = seed.read_position - 1
        while position >= 0 and mismatches <= budget:
            if offset < 0:
                predecessors = self.graph.predecessors(node_id)
                extends += 1
                chosen = None
                for candidate in predecessors:
                    if self.graph.node(candidate).sequence[-1] == sequence[position]:
                        chosen = candidate
                        break
                if chosen is None:
                    if not predecessors or mismatches >= budget:
                        break
                    chosen = predecessors[0]
                node_id = chosen
                node = self.graph.node(node_id)
                offset = len(node) - 1
                continue
            if node.sequence[offset] != sequence[position]:
                mismatches += 1
                if mismatches > budget:
                    break
            offset -= 1
            position -= 1
        backward_covered = seed.read_position - 1 - position

        covered = forward_covered + backward_covered
        return HaplotypeExtension(
            matched_bases=covered - mismatches,
            mismatches=mismatches,
            full_length=covered >= len(sequence),
            node_id=end_node,
            node_offset=end_offset,
            gbwt_extends=extends,
        )

    def map_read(self, read: Read, run: ToolRun) -> MappingResult:
        config = self.config
        with run.timer.stage("seed"):
            seeds, sequence = self.index.oriented_seeds(read.sequence)
            run.bump("seeds", len(seeds))
        if not seeds:
            return MappingResult(read.name, mapped=False, score=0.0, details="no seeds")

        with run.timer.stage("cluster"):
            stats = ClusterStats()
            clusters = cluster_seeds(
                self.graph, seeds,
                max_graph_gap=len(read) * 2,
                max_read_gap=len(read),
                min_cluster_size=config.min_cluster_size,
                stats=stats,
            )
            run.bump("distance_queries", stats.distance_queries)
            clusters.sort(key=len, reverse=True)

        best_extension: HaplotypeExtension | None = None
        with run.timer.stage("filter"):
            candidates: list[Seed] = []
            for cluster in clusters[:4]:
                ordered = sorted(cluster.seeds, key=lambda s: s.read_position)
                step = max(1, len(ordered) // 4)
                candidates.extend(ordered[::step])
            for seed in candidates[: config.max_extensions_per_read]:
                extension = self.extend_seed(sequence, seed)
                run.bump("gbwt_extends", extension.gbwt_extends)
                if (
                    best_extension is None
                    or extension.matched_bases > best_extension.matched_bases
                ):
                    best_extension = extension
        if best_extension is not None and best_extension.full_length:
            run.bump("resolved_by_extension")
            return MappingResult(
                read.name,
                mapped=True,
                score=float(best_extension.matched_bases + config.full_length_bonus),
                node_id=best_extension.node_id,
                node_offset=best_extension.node_offset,
                details="gbwt_extension",
            )

        if not clusters:
            return MappingResult(read.name, mapped=False, score=0.0, details="no clusters")
        with run.timer.stage("align"):
            anchor_seed = clusters[0].seeds[len(clusters[0].seeds) // 2]
            subgraph = local_subgraph(
                self.graph, anchor_seed.node_id, radius_bp=len(read) + 64, acyclic=True
            )
            aligner = GSSW(sequence, config.scoring, probe=self.probe)
            result = aligner.align(subgraph)
            run.bump("dp_cells", result.cells_computed)
        return MappingResult(
            read.name,
            mapped=result.score > len(read) // 2,
            score=float(result.score),
            node_id=result.end_node,
            node_offset=result.end_offset,
            details="gssw_fallback",
        )

    def map_reads(self, reads: list[Read]) -> ToolRun:
        run = ToolRun(tool="giraffe")
        for read in check_reads(reads):
            run.results.append(self.map_read(read, run))
        return run
