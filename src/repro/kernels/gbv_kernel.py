"""GBV kernel: graph Myers bitvector alignment (from GraphAligner).

Inputs (Table 3: "Clusters"): (long read, cluster subgraph) pairs dumped
from GraphAligner's alignment-stage boundary.
"""

from __future__ import annotations

import random

from repro.align.gbv import GBV, graph_edit_distance_scalar
from repro.data import derivation
from repro.errors import KernelError
from repro.graph.model import SequenceGraph
from repro.graph.ops import local_subgraph
from repro.index.minimizer import graph_minimizer_index
from repro.kernels.base import Kernel, KernelResult, register
from repro.sequence.records import Read
from repro.uarch.events import MachineProbe


def seeded_subgraphs(
    graph: SequenceGraph,
    reads: list[Read],
    k: int,
    w: int,
    slack: int,
    acyclic: bool,
) -> list[tuple[str, SequenceGraph]]:
    """Seed each read against *graph*'s (k, w) minimizer index, orient
    it, and cut the subgraph within ``len(read) + slack`` bases of its
    middle seed: the (read, subgraph) jobs a seed-and-extend mapper's
    alignment stage receives.  Reads without a seed are dropped."""
    index = graph_minimizer_index(graph, k=k, w=w)
    items: list[tuple[str, SequenceGraph]] = []
    for read in reads:
        seeds, sequence = index.oriented_seeds(read.sequence)
        if not seeds:
            continue
        anchor = seeds[len(seeds) // 2]
        subgraph = local_subgraph(graph, anchor.node_id,
                                  radius_bp=len(read) + slack, acyclic=acyclic)
        items.append((sequence, subgraph))
    return items


def extract_gbv_inputs(
    graph: SequenceGraph,
    reads: list[Read],
    k: int = 17,
    w: int = 20,
) -> list[tuple[str, SequenceGraph]]:
    """GraphAligner's pre-alignment stages: seeds -> light clusters ->
    (read, local subgraph) alignment jobs."""
    return seeded_subgraphs(graph, reads, k, w, slack=64, acyclic=False)


@derivation("gbv_inputs")
def _derive_gbv_inputs(data, spec):
    """GraphAligner's pre-alignment stages, dumped at the GBV boundary."""
    return extract_gbv_inputs(data.graph, list(data.long_reads))


@register
class GBVKernel(Kernel):
    """Edit-align long reads against cluster subgraphs bit-parallel-style."""

    name = "gbv"
    parent_tool = "graphaligner"
    input_type = "cluster"

    def prepare(self) -> None:
        self.items = self.derived("gbv_inputs")
        if not self.items:
            raise KernelError("no GBV inputs extracted")

    def _execute(self, probe: MachineProbe) -> KernelResult:
        rows = 0
        recomputations = 0
        pushes = 0
        distance_total = 0
        for query, subgraph in self.items:
            result = GBV(query, probe=probe).align(subgraph)
            rows += result.rows_computed
            recomputations += result.recomputations
            pushes += result.queue_pushes
            distance_total += result.distance
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=len(self.items),
            work={
                "rows_computed": float(rows),
                "recomputations": float(recomputations),
                "queue_pushes": float(pushes),
                "distance_total": float(distance_total),
            },
        )

    def validate(self) -> None:
        """GBV distances must equal the scalar label-correcting oracle
        (checked on a truncated sample — the oracle is O(cells) Python)."""
        self.ensure_prepared()
        rng = random.Random(self.seed)
        query, subgraph = self.items[rng.randrange(len(self.items))]
        short_query = query[:60]
        fast = GBV(short_query).align(subgraph).distance
        slow = graph_edit_distance_scalar(short_query, subgraph)
        if fast != slow:
            raise KernelError(f"GBV mismatch: {fast} != {slow}")
