"""GWFA kernels: graph wavefront gap bridging (from minigraph).

Two variants like the paper's Table 3: ``gwfa-lr`` bridges gaps between
chained long-read anchors ("Read Gaps"), ``gwfa-cr`` bridges the much
larger gaps of chromosome-assembly mapping ("Chrom Gaps") — longer
sequences covering more nodes, hence more control and memory divergence
and a *lower* IPC (Section 5.2).
"""

from __future__ import annotations

import random

from repro.align.gwfa import gwfa_align, graph_edit_distance_from
from repro.data import derivation
from repro.errors import AlignmentError, KernelError
from repro.graph.model import SequenceGraph
from repro.index.minimizer import graph_minimizer_index
from repro.align.chain import anchors_from_seeds, chain_anchors
from repro.kernels.base import Kernel, KernelResult, register
from repro.sequence.records import Read
from repro.uarch.events import MachineProbe


def extract_gwfa_inputs(
    graph: SequenceGraph,
    reads: list[Read],
    k: int = 17,
    w: int = 20,
    max_gap: int = 600,
) -> list[tuple[str, int]]:
    """Minigraph's chaining stage up to the GWFA boundary: for each pair
    of consecutive chain anchors, the read gap sequence and the graph
    node to bridge from."""
    index = graph_minimizer_index(graph, k=k, w=w)
    items: list[tuple[str, int]] = []
    for read in reads:
        seeds, sequence = index.oriented_seeds(read.sequence)
        if not seeds:
            continue
        anchors = anchors_from_seeds(graph, seeds, k)
        chain = chain_anchors(anchors, max_gap=max_gap)
        for left, right in zip(chain.anchors, chain.anchors[1:]):
            gap = sequence[left.read_position + left.length : right.read_position]
            if 0 < len(gap) <= max_gap:
                items.append((gap, left.node_id))
    return items


@derivation("gwfa_lr_inputs")
def _derive_gwfa_lr_inputs(data, spec):
    """Minigraph's long-read chaining, dumped at the GWFA boundary."""
    return extract_gwfa_inputs(data.graph, list(data.long_reads))


@derivation("gwfa_cr_inputs")
def _derive_gwfa_cr_inputs(data, spec):
    """Chromosome-assembly mapping: the held-out sample mapped as one
    giant query, so inter-anchor gaps are larger (paper: longer
    sequences -> more nodes -> more divergence)."""
    assembly = data.held_out  # a new sample, not yet in the graph
    fake_read = Read(
        name=assembly.name + "_as_read",
        sequence=assembly.sequence,
        truth_name=assembly.name,
        truth_start=0,
        truth_end=len(assembly),
    )
    items = extract_gwfa_inputs(data.graph, [fake_read], w=30, max_gap=4000)
    # Keep only the larger gaps (chromosome mapping's signature).
    items.sort(key=lambda item: len(item[0]), reverse=True)
    return [item for item in items if len(item[0]) >= 16] or items


class _GWFABase(Kernel):
    """Shared execution for the lr/cr variants."""

    def _execute(self, probe: MachineProbe) -> KernelResult:
        states = 0
        expansions = 0
        cells = 0
        distance_total = 0
        succeeded = 0
        for gap, start_node in self.items:
            try:
                result = gwfa_align(
                    gap, self.graph, start_node, probe=probe,
                    max_score=2 * len(gap) + 32,
                )
            except AlignmentError:
                continue
            succeeded += 1
            states += result.stats.states_processed
            expansions += result.stats.expansions
            cells += result.stats.cells_extended
            distance_total += result.distance
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=succeeded,
            work={
                "states_processed": float(states),
                "expansions": float(expansions),
                "cells_extended": float(cells),
                "distance_total": float(distance_total),
                "mean_gap_length": sum(len(g) for g, _ in self.items) / len(self.items),
            },
        )

    def validate(self) -> None:
        """GWFA must agree with the scalar oracle on short samples.

        A sample cannot legitimately exceed the default score limit of
        ``2 * len + 16``: the all-insertion walk costs at most ``len``.
        So a raise is an engine fault, not a skippable sample.
        """
        self.ensure_prepared()
        rng = random.Random(self.seed)
        sample = rng.sample(self.items, min(3, len(self.items)))
        for gap, start_node in sample:
            short = gap[:40]
            try:
                fast = gwfa_align(short, self.graph, start_node).distance
            except AlignmentError as error:
                raise KernelError(f"GWFA failed on a sample: {error}") from error
            slow = graph_edit_distance_from(short, self.graph, start_node)
            if fast != slow:
                raise KernelError(f"GWFA mismatch: {fast} != {slow}")


@register
class GWFALongReadKernel(_GWFABase):
    """Read-gap bridging (minigraph-lr)."""

    name = "gwfa-lr"
    parent_tool = "minigraph"
    input_type = "read gaps"

    def prepare(self) -> None:
        self.graph = self.dataset().graph
        self.items = self.derived("gwfa_lr_inputs")
        if not self.items:
            raise KernelError("no GWFA-lr inputs extracted")


@register
class GWFAChromosomeKernel(_GWFABase):
    """Chromosome-gap bridging (minigraph-cr / Minigraph–Cactus).

    The assembly is mapped as one giant query, so inter-anchor gaps are
    larger (paper: longer sequences -> more nodes -> more divergence).
    """

    name = "gwfa-cr"
    parent_tool = "minigraph"
    input_type = "chrom gaps"

    def prepare(self) -> None:
        self.graph = self.dataset().graph
        self.items = self.derived("gwfa_cr_inputs")
        if not self.items:
            raise KernelError("no GWFA-cr inputs extracted")