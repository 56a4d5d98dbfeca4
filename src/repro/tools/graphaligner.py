"""GraphAligner: the long-read Seq2Graph mapper model.

GraphAligner (Figure 2) spends ~5% of its time on lightweight clustering
and ~90% on alignment: it filters seed hits barely at all and lets the
GBV bit-parallel aligner absorb the work, trading affine-gap accuracy
for edit-distance speed (Section 3).  That profile emerges here because
clustering is a cheap node-proximity grouping while every surviving
cluster runs a full GBV alignment over its local subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.gbv import GBV
from repro.graph.model import SequenceGraph
from repro.graph.ops import local_subgraph
from repro.index.minimizer import Seed, graph_minimizer_index
from repro.sequence.records import Read
from repro.tools.base import MappingResult, ToolRun, check_reads
from repro.uarch.events import NULL_PROBE, MachineProbe


@dataclass
class GraphAlignerConfig:
    """Tunables (GraphAligner-like defaults scaled to synthetic data)."""

    k: int = 17
    w: int = 20
    max_clusters_aligned: int = 2
    min_cluster_seeds: int = 3
    context_slack: int = 64
    max_error_fraction: float = 0.35


class GraphAligner:
    """GraphAligner model: minimizers, light clustering, GBV alignment."""

    def __init__(
        self,
        graph: SequenceGraph,
        config: GraphAlignerConfig | None = None,
        probe: MachineProbe = NULL_PROBE,
    ) -> None:
        self.graph = graph
        self.config = config or GraphAlignerConfig()
        self.probe = probe
        self.index = graph_minimizer_index(graph, k=self.config.k, w=self.config.w)

    def _light_clusters(self, seeds: list[Seed]) -> list[list[Seed]]:
        """Cheap clustering: bucket by node id neighbourhood, no distance
        queries (GraphAligner's 5%-of-runtime clustering)."""
        forward = [seed for seed in seeds if not seed.is_reverse]
        forward.sort(key=lambda seed: (seed.node_id, seed.read_position))
        clusters: list[list[Seed]] = []
        for seed in forward:
            if clusters and abs(clusters[-1][-1].node_id - seed.node_id) <= 64:
                clusters[-1].append(seed)
            else:
                clusters.append([seed])
        clusters = [c for c in clusters if len(c) >= self.config.min_cluster_seeds]
        clusters.sort(key=len, reverse=True)
        return clusters[: self.config.max_clusters_aligned]

    def map_read(self, read: Read, run: ToolRun) -> MappingResult:
        with run.timer.stage("seed"):
            seeds, sequence = self.index.oriented_seeds(read.sequence)
            run.bump("seeds", len(seeds))
        if not seeds:
            return MappingResult(read.name, mapped=False, score=0.0, details="no seeds")

        with run.timer.stage("cluster"):
            clusters = self._light_clusters(seeds)
        if not clusters:
            return MappingResult(read.name, mapped=False, score=0.0, details="no clusters")

        with run.timer.stage("align"):
            aligner = GBV(sequence, probe=self.probe)
            best: MappingResult | None = None
            for cluster in clusters:
                anchor = cluster[len(cluster) // 2]
                subgraph = local_subgraph(
                    self.graph, anchor.node_id,
                    radius_bp=len(read) + self.config.context_slack,
                )
                run.bump("subgraph_bases", subgraph.total_sequence_length)
                result = aligner.align(subgraph)
                run.bump("gbv_rows", result.rows_computed)
                run.bump("gbv_recomputations", result.recomputations)
                mapped = result.distance <= self.config.max_error_fraction * len(read)
                candidate = MappingResult(
                    read.name,
                    mapped=mapped,
                    score=float(len(read) - result.distance),
                    node_id=result.end_node,
                    node_offset=result.end_offset,
                )
                if best is None or candidate.score > best.score:
                    best = candidate
        assert best is not None
        return best

    def map_reads(self, reads: list[Read]) -> ToolRun:
        run = ToolRun(tool="graphaligner")
        for read in check_reads(reads):
            run.results.append(self.map_read(read, run))
        return run
