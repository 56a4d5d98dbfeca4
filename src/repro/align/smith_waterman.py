"""Smith–Waterman local alignment: scalar reference and striped SIMD model.

The scalar version is the Gotoh affine-gap DP used as a correctness
oracle.  :class:`StripedSmithWaterman` models Farrar's striped algorithm
(the SSW library) the way the paper's SSW/GSSW kernels use it: the query
is laid out in stripes across SIMD lanes, a lazy-F pass fixes the
speculated-away vertical dependencies, and every vector operation /
memory access is reported to an optional :class:`MachineProbe` so the
characterization studies see SSW's true operation mix.

Gap convention: a gap of length L costs ``gap_open + L * gap_extend``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.align.scoring import AffineScoring, AlignmentResult, VG_DEFAULT
from repro.align.striped import (
    NEG_INF,
    ColumnTrace,
    base_codes,
    lazy_f_alu,
    lazy_f_branches,
    lazy_f_scalar,
    lazy_f_steps,
    lockstep,
    lockstep_groups,
    segment_length,
    striped_profile,
)
from repro.backends import (
    SCALAR,
    VECTORIZED,
    check_backend,
    report_backend_fallback,
)
from repro.errors import AlignmentError
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass

#: Shared space for target windows so successive alignments stream over
#: fresh reference regions (as the real tool does over the genome).
_TARGET_SPACE = AddressSpace(base=1 << 33)


def smith_waterman(
    query: str,
    target: str,
    scoring: AffineScoring = VG_DEFAULT,
) -> AlignmentResult:
    """Scalar affine-gap local alignment (Gotoh).  Correctness oracle.

    Returns the best local score with end coordinates on both sequences.
    """
    if not query or not target:
        raise AlignmentError("smith_waterman requires non-empty sequences")
    m, n = len(query), len(target)
    open_cost = scoring.gap_open + scoring.gap_extend
    extend_cost = scoring.gap_extend

    h_prev = np.zeros(m + 1, dtype=np.int64)
    e_prev = np.full(m + 1, NEG_INF, dtype=np.int64)
    best = 0
    best_q = best_t = 0
    for j in range(1, n + 1):
        h_curr = np.zeros(m + 1, dtype=np.int64)
        e_curr = np.full(m + 1, NEG_INF, dtype=np.int64)
        f = NEG_INF
        for i in range(1, m + 1):
            e_curr[i] = max(h_prev[i] - open_cost, e_prev[i] - extend_cost)
            f = max(h_curr[i - 1] - open_cost, f - extend_cost)
            diag = h_prev[i - 1] + scoring.substitution(query[i - 1], target[j - 1])
            h = max(0, diag, e_curr[i], f)
            h_curr[i] = h
            if h > best:
                best, best_q, best_t = h, i, j
        h_prev, e_prev = h_curr, e_curr
    return AlignmentResult(
        score=int(best), query_end=best_q, target_end=best_t, cells_computed=m * n
    )


class StripedSmithWaterman:
    """Farrar's striped SIMD Smith–Waterman (the SSW library's algorithm).

    Args:
        query: The (short) query sequence; profiled once, reused per target.
        scoring: Affine scheme.
        lanes: SIMD lanes per vector word (8 for 16-bit epi16 SSE2, the
            SSW library default).
        probe: Optional machine probe receiving vector/memory/branch events.
    """

    LANE_BYTES = 2  # 16-bit scores, as in the SSW library's epi16 kernel

    def __init__(
        self,
        query: str,
        scoring: AffineScoring = VG_DEFAULT,
        lanes: int = 8,
        probe: MachineProbe = NULL_PROBE,
        address_space: AddressSpace | None = None,
        backend: str = VECTORIZED,
    ) -> None:
        if not query:
            raise AlignmentError("empty query")
        if lanes < 2:
            raise AlignmentError("need at least 2 SIMD lanes")
        self.query = query
        self.scoring = scoring
        self.lanes = lanes
        self.probe = probe
        self.segment_length = segment_length(len(query), lanes)
        space = address_space or AddressSpace()
        word_bytes = lanes * self.LANE_BYTES
        self._profile_base = space.alloc(4 * self.segment_length * word_bytes)
        self._h_base = space.alloc(2 * self.segment_length * word_bytes)
        self._e_base = space.alloc(self.segment_length * word_bytes)
        self._word_bytes = word_bytes
        self._profile = striped_profile(query, scoring, lanes)
        self._touch_profile(probe)
        # The lock-step engine needs open >= extend so that the in-column
        # F recurrence collapses to a max-plus prefix scan (GSSW's
        # condition too); an incompatible scheme downgrades to the scalar
        # reference and says so on kernel.backend_fallback.
        check_backend(backend, (SCALAR, VECTORIZED), "StripedSmithWaterman",
                      AlignmentError)
        self.backend = backend
        open_cost = scoring.gap_open + scoring.gap_extend
        self.vectorize = (backend == VECTORIZED
                          and open_cost >= scoring.gap_extend)
        if backend == VECTORIZED and not self.vectorize:
            self.backend = SCALAR
            report_backend_fallback("ssw", requested=VECTORIZED,
                                    actual=SCALAR,
                                    reason="scoring-incompatible")

    def _touch_profile(self, probe: MachineProbe) -> None:
        """The profile build's writes: one striped block per base."""
        block = self.segment_length * self._word_bytes
        for base_index in range(4):
            probe.touch_region(self._profile_base + base_index * block, block)

    def align(self, target: str) -> AlignmentResult:
        """Local-align the profiled query against *target*."""
        return _align_group([self], [target], self.probe, touch=False)[0]

    # ------------------------------------------------------------------

    def _scan_scalar(self, target: str) -> ColumnTrace:
        """Scalar segment loop, one column at a time.  The differential
        oracle for the lock-step engine: same scores, exit steps and
        improved flags."""
        seg = self.segment_length
        open_cost = self.scoring.gap_open + self.scoring.gap_extend
        extend_cost = self.scoring.gap_extend

        h_store = np.zeros((seg, self.lanes), dtype=np.int64)
        h_load = np.zeros((seg, self.lanes), dtype=np.int64)
        e = np.full((seg, self.lanes), NEG_INF, dtype=np.int64)
        best = 0
        best_column = -1
        best_cell = 0
        stops = np.empty(len(target), dtype=np.int64)
        improved_flags = np.zeros(len(target), dtype=bool)

        for j, code in enumerate(base_codes(target)):
            profile = self._profile[code]
            # vH enters shifted by one lane from the last segment's H.
            h = np.empty(self.lanes, dtype=np.int64)
            h[0] = 0
            h[1:] = h_store[seg - 1, : self.lanes - 1]
            h_store, h_load = h_load, h_store
            f = np.full(self.lanes, NEG_INF, dtype=np.int64)
            for segment in range(seg):
                h = h + profile[segment]
                np.maximum(h, e[segment], out=h)
                np.maximum(h, f, out=h)
                np.maximum(h, 0, out=h)
                h_store[segment] = h
                e[segment] = np.maximum(h - open_cost, e[segment] - extend_cost)
                f = np.maximum(h - open_cost, f - extend_cost)
                h = h_load[segment].copy()
            # Lazy-F: propagate F across stripes until no lane can improve
            # (the vertical dependency Farrar speculates away).
            stops[j] = lazy_f_scalar(h_store, f, open_cost, extend_cost)

            column_best = int(h_store.max())
            if column_best > best:
                improved_flags[j] = True
                best = column_best
                best_column = j
                best_cell = int(h_store.argmax())
        return ColumnTrace(stops=stops, improved=improved_flags, score=best,
                           column=best_column, cell=best_cell)

    def _emit(self, target: str, trace: ColumnTrace, probe: MachineProbe) -> None:
        """Report one alignment's events, as the column loop makes them."""
        seg = self.segment_length
        word_bytes = self._word_bytes
        # Each target window is a fresh reference region: streaming reads.
        target_base = _TARGET_SPACE.alloc(len(target))
        probe.load_block(target_base + np.arange(len(target), dtype=np.int64), 1)

        # The per-column memory walk is the same every column: striped
        # rows of the profile, H and E arrays.
        segment_offsets = word_bytes * np.arange(seg, dtype=np.int64)
        profile_row = self._profile_base + segment_offsets
        h_store_row = self._h_base + segment_offsets
        e_row = self._e_base + segment_offsets
        h_load_row = self._h_base + seg * word_bytes + segment_offsets
        for _ in range(len(target)):
            probe.load_block(profile_row, word_bytes)
            probe.store_block(h_store_row, word_bytes)
            probe.load_block(e_row, word_bytes)
            probe.store_block(e_row, word_bytes)
            probe.load_block(h_load_row, word_bytes)
            # 1 lane shift + 10 dependent vector ops per segment (4 for
            # the H recurrence, 6 for the E/F updates).
            probe.alu(OpClass.VECTOR_ALU, 10 * seg, dependent=True)
            probe.alu(OpClass.VECTOR_ALU, 1)

        # Lazy-F's stores and data-dependent exit branches, as blocks
        # after the column sweep: each step stores its segment's H.
        steps = lazy_f_steps(trace.stops, seg, self.lanes)
        starts = np.repeat(np.cumsum(steps) - steps, steps)
        segments = (np.arange(int(steps.sum())) - starts) % seg
        probe.store_block(self._h_base + word_bytes * segments, word_bytes)
        probe.branch_trace(2, lazy_f_branches(trace.stops, self.lanes * seg))
        probe.alu_bulk(OpClass.VECTOR_ALU,
                       lazy_f_alu(trace.stops, seg, self.lanes))
        probe.branch_trace(1, trace.improved)

    def _result(self, target: str, trace: ColumnTrace) -> AlignmentResult:
        return AlignmentResult(
            score=trace.score,
            query_end=trace.query_end(self.segment_length, self.lanes),
            target_end=trace.column + 1,
            cells_computed=len(self.query) * len(target),
        )


def _align_group(
    aligners: Sequence[StripedSmithWaterman],
    targets: Sequence[str],
    probe: MachineProbe,
    touch: bool,
) -> list[AlignmentResult]:
    """Align ``targets[i]`` with ``aligners[i]`` (one scoring, lanes and
    segment length), then emit each alignment's events in order —
    preceded by its profile build's when *touch*."""
    if not all(targets):
        raise AlignmentError("empty target")
    first = aligners[0]
    if first.vectorize:
        traces = lockstep(
            [aligner._profile for aligner in aligners],
            [base_codes(target) for target in targets],
            [[(len(target), ())] for target in targets],
            first.scoring,
            e_from_previous=False,
        )
    else:
        traces = [aligner._scan_scalar(target)
                  for aligner, target in zip(aligners, targets)]
    results = []
    for aligner, target, trace in zip(aligners, targets, traces):
        if touch:
            aligner._touch_profile(probe)
        aligner._emit(target, trace, probe)
        results.append(aligner._result(target, trace))
    return results


def ssw_align_many(
    pairs: Iterable[tuple[str, str]],
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
    backend: str = VECTORIZED,
) -> Iterator[AlignmentResult]:
    """Striped SW over ``(query, target)`` pairs, lock-step in groups.

    Yields one result per pair, in order, and emits the probe stream of
    building a :class:`StripedSmithWaterman` per pair on *probe* and
    aligning its target.  *pairs* is consumed lazily, a group at a time.
    """
    # Built silent: each profile's events go out with its alignment.
    aligned = ((StripedSmithWaterman(query, scoring, lanes=lanes,
                                     backend=backend), target)
               for query, target in pairs)
    for group in lockstep_groups(aligned, lambda item: item[0].segment_length):
        aligners, targets = zip(*group)
        yield from _align_group(aligners, targets, probe, touch=True)


def striped_smith_waterman(
    query: str,
    target: str,
    scoring: AffineScoring = VG_DEFAULT,
    lanes: int = 8,
    probe: MachineProbe = NULL_PROBE,
) -> AlignmentResult:
    """One-shot striped SW (profile built per call)."""
    return StripedSmithWaterman(query, scoring, lanes=lanes, probe=probe).align(target)
