"""VgMap: the vg map Seq2Graph short-read mapper model.

Pipeline per Figure 2: minimizer seeding against the graph, graph-
distance clustering, and GSSW alignment of the read against acyclic
subgraphs extracted around the best clusters.  vg map spends significant
time in *every* stage (the paper's "falls between the extremes"), which
emerges here because clustering runs shortest-path queries and alignment
runs full DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.chain import Cluster, ClusterStats, cluster_seeds
from repro.align.gssw import GSSW
from repro.align.scoring import VG_DEFAULT, AffineScoring
from repro.graph.model import SequenceGraph
from repro.graph.ops import local_subgraph
from repro.index.minimizer import graph_minimizer_index
from repro.sequence.records import Read
from repro.tools.base import MappingResult, ToolRun, check_reads
from repro.uarch.events import NULL_PROBE, MachineProbe


@dataclass
class VgMapConfig:
    """Tunables (vg-like defaults scaled to synthetic data)."""

    k: int = 15
    w: int = 10
    max_clusters_aligned: int = 2
    min_cluster_size: int = 2
    context_radius: int = 160
    scoring: AffineScoring = VG_DEFAULT


class VgMap:
    """vg map model over a pangenome graph with haplotype paths."""

    def __init__(
        self,
        graph: SequenceGraph,
        config: VgMapConfig | None = None,
        probe: MachineProbe = NULL_PROBE,
    ) -> None:
        self.graph = graph
        self.config = config or VgMapConfig()
        self.probe = probe
        self.index = graph_minimizer_index(graph, k=self.config.k, w=self.config.w)

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
            clusters = clusters[: config.max_clusters_aligned]
        if not clusters:
            return MappingResult(read.name, mapped=False, score=0.0, details="no clusters")

        with run.timer.stage("align"):
            aligner = GSSW(sequence, config.scoring, probe=self.probe)
            best: MappingResult | None = None
            for cluster in clusters:
                anchor_seed = cluster.seeds[len(cluster.seeds) // 2]
                subgraph = local_subgraph(
                    self.graph, anchor_seed.node_id,
                    radius_bp=len(read) + config.context_radius,
                    acyclic=True,
                )
                run.bump("subgraph_bases", subgraph.total_sequence_length)
                result = aligner.align(subgraph)
                run.bump("dp_cells", result.cells_computed)
                candidate = MappingResult(
                    read.name,
                    mapped=result.score > len(read) // 2,
                    score=float(result.score),
                    node_id=result.end_node,
                    node_offset=result.end_offset,
                )
                if best is None or candidate.score > best.score:
                    best = candidate
        assert best is not None
        return best

    def map_reads(self, reads: list[Read]) -> ToolRun:
        """Map a batch; returns the run with stage times and counters."""
        run = ToolRun(tool="vg_map")
        for read in check_reads(reads):
            run.results.append(self.map_read(read, run))
        return run
