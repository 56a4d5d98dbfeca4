"""Minigraph: the long-read / assembly Seq2Graph mapper model.

Minigraph (Figure 2) front-loads its work into *chaining*: a minimap2-
style 2D DP over anchors plus GWFA bridging of the gaps between chained
anchors (the GWFA kernel — 47% of chaining time for long reads, 75% for
chromosome assemblies, per Section 2.1).  Base-level alignment of the
remaining divergent stretches is comparatively light for reads and is
skipped for assemblies (minigraph's default).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.chain import anchors_from_seeds, chain_anchors
from repro.align.gwfa import gwfa_align
from repro.align.wfa import wfa_edit_distance
from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.index.minimizer import graph_minimizer_index
from repro.sequence.records import Read
from repro.tools.base import MappingResult, ToolRun, check_reads
from repro.uarch.events import NULL_PROBE, MachineProbe


@dataclass
class MinigraphConfig:
    """Tunables; ``mode`` is 'lr' (long reads) or 'cr' (assemblies)."""

    mode: str = "lr"
    k: int = 17
    w: int = 20
    max_gwfa_gap: int = 600
    base_level: bool = True  # run WFA refinement of gaps ('lr' default)

    def __post_init__(self) -> None:
        if self.mode not in ("lr", "cr"):
            raise AlignmentError(f"unknown minigraph mode {self.mode!r}")
        if self.mode == "cr":
            # Assemblies: chaining only, no base-level alignment; larger
            # gaps bridged (whole-chromosome mapping).
            self.base_level = False
            self.max_gwfa_gap = 4000


class Minigraph:
    """Minigraph model: minimizers, 2D chaining with GWFA, WFA base step."""

    def __init__(
        self,
        graph: SequenceGraph,
        config: MinigraphConfig | None = None,
        probe: MachineProbe = NULL_PROBE,
    ) -> None:
        self.graph = graph
        self.config = config or MinigraphConfig()
        self.probe = probe
        self.index = graph_minimizer_index(graph, k=self.config.k, w=self.config.w)

    def map_read(self, read: Read, run: ToolRun) -> MappingResult:
        config = self.config
        with run.timer.stage("seed"):
            seeds, sequence = self.index.oriented_seeds(read.sequence)
            run.bump("seeds", len(seeds))
        if not seeds:
            return MappingResult(read.name, mapped=False, score=0.0, details="no seeds")

        with run.timer.stage("cluster"):  # minigraph's chaining stage
            anchors = anchors_from_seeds(self.graph, seeds, config.k)
            chain = chain_anchors(anchors, max_gap=config.max_gwfa_gap, probe=self.probe)
            run.bump("chain_pairs", chain.pairs_evaluated)
            # GWFA bridging: connect consecutive chain anchors through the
            # graph (this is the extracted GWFA kernel's in-tool context).
            gwfa_states = 0
            bridged = 0
            for left, right in zip(chain.anchors, chain.anchors[1:]):
                read_gap = right.read_position - (left.read_position + left.length)
                if read_gap <= 0 or read_gap > config.max_gwfa_gap:
                    continue
                gap_sequence = sequence[
                    left.read_position + left.length : right.read_position
                ]
                if not gap_sequence:
                    continue
                try:
                    result = gwfa_align(
                        gap_sequence, self.graph, left.node_id,
                        probe=self.probe, max_score=2 * len(gap_sequence) + 32,
                    )
                    gwfa_states += result.stats.states_processed
                    bridged += 1
                except AlignmentError:
                    continue
            run.bump("gwfa_states", gwfa_states)
            run.bump("gwfa_bridges", bridged)
        if not chain.anchors:
            return MappingResult(read.name, mapped=False, score=0.0, details="no chain")

        score = chain.score
        if config.base_level:
            with run.timer.stage("align"):
                # WFA refinement of the divergent gaps against the chained
                # target interval (coordinate-linearized).
                refined = 0
                for left, right in zip(chain.anchors, chain.anchors[1:]):
                    read_gap = sequence[
                        left.read_position + left.length : right.read_position
                    ]
                    target_gap_length = right.target_position - (
                        left.target_position + left.length
                    )
                    if not read_gap or target_gap_length <= 0:
                        continue
                    target_gap = self._walk_sequence(
                        left.node_id, left.length, target_gap_length
                    )
                    if not target_gap:
                        continue
                    result = wfa_edit_distance(read_gap, target_gap, probe=self.probe)
                    refined += 1
                    score -= result.distance
                run.bump("wfa_refinements", refined)

        coverage = sum(anchor.length for anchor in chain.anchors)
        return MappingResult(
            read.name,
            mapped=coverage >= min(len(read) // 4, 200),
            score=float(score),
            node_id=chain.anchors[0].node_id,
            details=f"chain_of_{len(chain.anchors)}",
        )

    def _walk_sequence(self, node_id: int, skip: int, length: int) -> str:
        """Collect ~length graph bases downstream of (node_id, +skip)."""
        pieces: list[str] = []
        collected = 0
        current = node_id
        offset = skip
        while collected < length:
            sequence = self.graph.node(current).sequence
            take = sequence[offset : offset + (length - collected)]
            pieces.append(take)
            collected += len(take)
            if collected >= length:
                break
            successors = self.graph.successors(current)
            if not successors:
                break
            current = successors[0]
            offset = 0
        return "".join(pieces)

    def map_reads(self, reads: list[Read]) -> ToolRun:
        run = ToolRun(tool=f"minigraph-{self.config.mode}")
        for read in check_reads(reads):
            run.results.append(self.map_read(read, run))
        return run
