"""SSW kernel: linear striped Smith–Waterman (Seq2Seq case-study baseline).

Not one of the suite's eight kernels, but the comparison point of the
paper's Section 6.1 case study: the same reads GSSW aligns against
subgraphs are aligned here against plain reference windows, with the
single-previous-column working set that gives SSW ~3x fewer memory
stalls than GSSW.
"""

from __future__ import annotations

import random

from repro.align.scoring import VG_DEFAULT
from repro.align.smith_waterman import smith_waterman, ssw_align_many
from repro.data import derivation
from repro.errors import KernelError
from repro.index.minimizer import SequenceMinimizerIndex
from repro.kernels.base import (
    SCALAR,
    VECTORIZED,
    Kernel,
    KernelResult,
    register,
)
from repro.sequence.alphabet import reverse_complement
from repro.sequence.records import Read, SequenceRecord


def extract_ssw_inputs(
    reference: SequenceRecord,
    reads: list[Read],
    k: int = 15,
    w: int = 10,
    flank: int = 160,
) -> list[tuple[str, str]]:
    """BWA-style pre-alignment: seed, pick the best diagonal, and dump
    the (read, reference window) pairs the SW stage would receive."""
    index = SequenceMinimizerIndex(k=k, w=w)
    index.add(reference.name, reference.sequence)
    items: list[tuple[str, str]] = []
    for read in reads:
        seeds = index.seeds_for(read.sequence)
        sequence = read.sequence
        if seeds and sum(1 for *_x, opp in seeds if opp) * 2 > len(seeds):
            sequence = reverse_complement(read.sequence)
            seeds = index.seeds_for(sequence)
        forward = [(rp, tp) for rp, _n, tp, opp in seeds if not opp]
        if not forward:
            continue
        read_pos, ref_pos = forward[len(forward) // 2]
        start = max(0, ref_pos - read_pos - flank)
        end = min(len(reference.sequence), ref_pos - read_pos + len(read) + flank)
        window = reference.sequence[start:end]
        if window:
            items.append((sequence, window))
    return items


@derivation("ssw_inputs")
def _derive_ssw_inputs(data, spec):
    """BWA's pre-alignment stages, dumped at the SW boundary."""
    return extract_ssw_inputs(data.reference, list(data.short_reads))


@register
class SSWKernel(Kernel):
    """Align short reads against linear reference windows."""

    name = "ssw"
    parent_tool = "bwa_mem"
    input_type = "read fragment + window"
    #: The striped-SIMD aligner, with the scalar Gotoh oracle
    #: selectable as a backend.
    SUPPORTED_BACKENDS = (SCALAR, VECTORIZED)

    def prepare(self) -> None:
        self.items = self.derived("ssw_inputs")
        if not self.items:
            raise KernelError("no SSW inputs extracted")

    def _execute(self, probe) -> KernelResult:
        cells = 0
        score_total = 0
        for result in ssw_align_many(self.items, VG_DEFAULT, probe=probe,
                                     backend=self.backend):
            cells += result.cells_computed
            score_total += result.score
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=len(self.items),
            work={"dp_cells": float(cells), "score_total": float(score_total)},
        )

    def validate(self) -> None:
        """Scores from the path :meth:`_execute` runs (this backend, one
        engine call) must equal the scalar Gotoh oracle."""
        self.ensure_prepared()
        rng = random.Random(self.seed)
        sample = rng.sample(self.items, min(3, len(self.items)))
        results = ssw_align_many(sample, VG_DEFAULT, backend=self.backend)
        for (query, window), result in zip(sample, results):
            fast = result.score
            slow = smith_waterman(query, window, VG_DEFAULT).score
            if fast != slow:
                raise KernelError(f"SSW mismatch: {fast} != {slow}")
