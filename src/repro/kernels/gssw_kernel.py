"""GSSW kernel: graph SIMD Smith–Waterman (extracted from vg map).

Inputs (Table 3: "Read Fragment"): (query, acyclic subgraph) pairs,
produced by running vg map's seeding and clustering stages and dumping
what its alignment stage would receive — the same extract-at-the-
boundary method the paper uses.  Every read range seeds against the
corpus graph's one cached (15, 10) minimizer index
(:func:`repro.index.minimizer.graph_minimizer_index`), which lives as
long as the graph.
"""

from __future__ import annotations

import random

from repro.align.gssw import graph_smith_waterman_scalar, gssw_align_many
from repro.align.scoring import VG_DEFAULT
from repro.data import derivation
from repro.data.corpus import short_read_count
from repro.data.streaming import ChunkedSeries
from repro.errors import KernelError
from repro.graph.model import SequenceGraph
from repro.kernels.base import (
    SCALAR,
    VECTORIZED,
    Kernel,
    KernelResult,
    register,
)
from repro.kernels.gbv_kernel import seeded_subgraphs
from repro.sequence.records import Read
from repro.uarch.events import MachineProbe


def extract_gssw_inputs(
    graph: SequenceGraph,
    reads: list[Read],
    k: int = 15,
    w: int = 10,
    context_radius: int = 160,
) -> list[tuple[str, SequenceGraph]]:
    """Run the pre-alignment stages and collect GSSW's (query, subgraph)
    inputs — shared by the kernel and the Figure 10/11 case studies.
    vg DAG-ifies each extracted context, so the subgraphs are acyclic."""
    return seeded_subgraphs(graph, reads, k, w, slack=context_radius,
                            acyclic=True)


@derivation("gssw_inputs")
def _derive_gssw_inputs(data, spec, start=0, stop=None):
    """vg map's pre-alignment stages, dumped at the GSSW boundary, for
    reads ``start..stop`` (default all).  Extraction is per-read (every
    range seeds against the graph's one cached minimizer index), so
    concatenating ranges reproduces the whole list exactly —
    seed-filtered reads and all."""
    return extract_gssw_inputs(data.graph, list(data.short_reads)[start:stop])


@register
class GSSWKernel(Kernel):
    """Align short-read fragments to seed-local acyclic subgraphs."""

    name = "gssw"
    parent_tool = "vg_map"
    input_type = "read fragment + subgraph"
    #: The striped-SIMD aligner, with the scalar graph-SW oracle
    #: selectable as a backend.
    SUPPORTED_BACKENDS = (SCALAR, VECTORIZED)

    def prepare(self) -> None:
        self.items = ChunkedSeries(self.spec, "gssw_inputs",
                                   short_read_count(self.spec))
        if not self.items:
            raise KernelError("no GSSW inputs extracted")

    def _execute(self, probe: MachineProbe) -> KernelResult:
        cells = 0
        score_total = 0
        subgraph_bases = 0

        def inputs():
            nonlocal subgraph_bases
            for query, subgraph in self.items:
                subgraph_bases += subgraph.total_sequence_length
                yield query, subgraph

        for result in gssw_align_many(inputs(), VG_DEFAULT, probe=probe,
                                      backend=self.backend):
            cells += result.cells_computed
            score_total += result.score
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=len(self.items),
            work={
                "dp_cells": float(cells),
                "score_total": float(score_total),
                "mean_subgraph_bases": subgraph_bases / len(self.items),
            },
        )

    def validate(self) -> None:
        """Scores from the path :meth:`_execute` runs (this backend, one
        engine call) must equal the scalar graph-SW oracle."""
        self.ensure_prepared()
        rng = random.Random(self.seed)
        sample = rng.sample(self.items, min(3, len(self.items)))
        results = gssw_align_many(sample, VG_DEFAULT, backend=self.backend)
        for (query, subgraph), result in zip(sample, results):
            fast = result.score
            slow = graph_smith_waterman_scalar(query, subgraph, VG_DEFAULT).score
            if fast != slow:
                raise KernelError(f"GSSW mismatch: {fast} != {slow}")
