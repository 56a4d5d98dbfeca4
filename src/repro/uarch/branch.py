"""Branch predictors for the bad-speculation component of the top-down
model.

Kernels report conditional branches as (static site, outcome) pairs; a
gshare predictor (global history XOR site, 2-bit saturating counters)
consumes the stream.  Data-dependent branches (GBV's merge outcomes,
GBWT's index walks) mispredict heavily; loop-ish branches are absorbed by
the history — the same qualitative split VTune shows in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.uarch.cache import _stable_argsort

#: Below this many outcomes the fixed numpy-dispatch cost of the
#: vectorized gshare scan loses to the per-event loop.  On prefixes of
#: the characterization suite's recorded blocks the crossover is ~230;
#: replaying the whole suite is flat from 128 to 512, and 9% (64) and
#: 22% (32) slower below.
BRANCH_BATCH_CUTOFF = 128


@dataclass
class BranchStats:
    """Aggregate prediction statistics."""

    branches: int = 0
    mispredictions: int = 0
    taken: int = 0

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0


class GsharePredictor:
    """Gshare: 2-bit counters indexed by (site XOR global history)."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12) -> None:
        if table_bits < 2 or history_bits < 1:
            raise SimulationError("bad predictor configuration")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self.mask = (1 << table_bits) - 1
        self.history_mask = (1 << history_bits) - 1
        # 2-bit counters as bytes (weakly taken); the block path works
        # on a numpy view of the same buffer.
        self.table = bytearray([2]) * (1 << table_bits)
        self.history = 0
        self.stats = BranchStats()

    def predict_and_update(self, site: int, taken: bool) -> bool:
        """Record one branch; returns True if it was predicted correctly."""
        index = (site ^ self.history) & self.mask
        counter = self.table[index]
        prediction = counter >= 2
        correct = prediction == taken
        self.stats.branches += 1
        if taken:
            self.stats.taken += 1
            if counter < 3:
                self.table[index] = counter + 1
        else:
            if counter > 0:
                self.table[index] = counter - 1
        if not correct:
            self.stats.mispredictions += 1
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        return correct

    def predict_and_update_block(
        self, sites: int | np.ndarray, outcomes
    ) -> None:
        """Record a whole outcome stream, vectorized.

        *sites* is one static site for the whole stream or an array of
        one site per outcome; *outcomes* are read as truth values.
        Bit-identical to calling :meth:`predict_and_update` per event
        with ``bool(outcome)``.  The global-history sequence depends
        only on the outcomes (not on the table or the sites), so every
        event's table index ``site ^ history`` is computed up front by
        packing sliding windows of the outcome bits; table cells are
        independent, so events are then grouped by index.  Within a
        cell, each run of same-direction outcomes acts on the 2-bit
        counter as a saturating add whose effect (and misprediction
        count) is a closed form of the starting counter, so runs become
        one-byte transition codes over the four counter states and the
        sequential dependence collapses into a log-depth prefix
        composition of those codes (a Hillis-Steele scan through a
        256 x 256 composition table).
        """
        taken = np.asarray(outcomes, dtype=bool)
        n = taken.shape[0]
        if n == 0:
            return
        if n < BRANCH_BATCH_CUTOFF:
            update = self.predict_and_update
            for site, outcome in zip(np.broadcast_to(sites, n).tolist(),
                                     taken.tolist()):
                update(site, outcome)
            return
        hb = self.history_bits
        # History before event i, for i = 0..n: the hb outcome bits
        # before it (the pre-block history's bits first), packed by hb
        # shifted ORs.
        dtype = np.min_scalar_type(max(self.mask, self.history_mask))
        ext = np.empty(hb + n, dtype=dtype)
        ext[:hb] = [(self.history >> (hb - 1 - k)) & 1 for k in range(hb)]
        ext[hb:] = taken
        histories = np.zeros(n + 1, dtype=dtype)
        for k in range(hb):
            histories |= ext[hb - 1 - k:hb + n - k] << k
        sites = (np.asarray(sites) & self.mask).astype(dtype)
        indices = (histories[:n] ^ sites) & self.mask
        order = _stable_argsort(indices, self.mask + 1)
        sorted_idx = indices[order]
        sorted_taken = taken[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=change[1:])
        first_of_cell = change.copy()
        change[1:] |= sorted_taken[1:] != sorted_taken[:-1]
        run_starts = np.flatnonzero(change)
        runs = run_starts.shape[0]
        cells = sorted_idx[run_starts]
        first_of_cell = first_of_cell[run_starts]
        # Each run as a transition code over the four counter states
        # (_RUN_CODE); a run longer than 3 saturates like one of 3.
        run_lengths = np.diff(run_starts, append=n)
        kind = np.minimum(run_lengths, 3) - 1
        kind += 3 * sorted_taken[run_starts]
        scan = _RUN_CODE[kind]
        # Prefix-compose codes within each cell's run group (log-depth
        # Hillis-Steele scan); scan[r] then maps a cell's starting
        # counter to its value after runs first..r.
        cell_start = np.maximum.accumulate(
            np.where(first_of_cell, np.arange(runs), 0))
        rank = np.arange(runs) - cell_start
        targets = np.flatnonzero(rank)
        shift = 1
        while targets.shape[0]:
            scan[targets] = _COMPOSE[scan[targets - shift], scan[targets]]
            shift *= 2
            targets = targets[rank[targets] >= shift]
        table = np.frombuffer(self.table, dtype=np.uint8)
        initial = table[cells]
        start_counter = initial.copy()
        continuing = np.flatnonzero(rank)
        start_counter[continuing] = _apply(
            scan[continuing - 1], initial[continuing])
        mispredictions = int(_RUN_MISSES[kind, start_counter].sum())
        last_of_cell = np.empty(runs, dtype=bool)
        last_of_cell[-1] = True
        last_of_cell[:-1] = first_of_cell[1:]
        last_runs = np.flatnonzero(last_of_cell)
        table[cells[last_runs]] = _apply(scan[last_runs], initial[last_runs])
        self.stats.branches += n
        self.stats.taken += int(np.count_nonzero(taken))
        self.stats.mispredictions += mispredictions
        self.history = int(histories[n])


def _apply(codes: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Counter value after the transition *codes* from *states*."""
    return (codes >> (2 * states)) & 3


def _run_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of same-direction runs on a 2-bit counter.

    A transition over the four counter states packs into one byte, two
    bits per starting state.  Run kind ``k = 3 * taken + min(L, 3) - 1``
    (L = run length): a taken run is a saturating add of L, a not-taken
    run a saturating subtract, and its mispredictions are the steps
    spent on the wrong side of the 2-bit threshold -- at most 2, so a
    run of 3 or more acts like one of 3.  ``compose[a, b]`` is the code
    of "*a*, then *b*".
    """
    states = np.arange(4)
    lengths = np.arange(1, 4)[:, None]
    after = np.concatenate([np.maximum(0, states - lengths),
                            np.minimum(3, states + lengths)])
    misses = np.concatenate([np.minimum(lengths, np.maximum(0, states - 1)),
                             np.minimum(lengths, np.maximum(0, 2 - states))])
    run_code = (after << (2 * states)).sum(axis=1).astype(np.uint8)
    codes = np.arange(256, dtype=np.uint8)
    image = (codes[:, None] >> (2 * states).astype(np.uint8)) & 3
    composed = image[codes[None, :, None], image[:, None, :]]
    compose = (composed << (2 * states).astype(np.uint8)).sum(
        axis=2, dtype=np.uint8)
    return run_code, misses, compose


_RUN_CODE, _RUN_MISSES, _COMPOSE = _run_tables()


class BimodalPredictor:
    """Per-site 2-bit counters (no history) — a weaker baseline."""

    def __init__(self, table_bits: int = 12) -> None:
        self.mask = (1 << table_bits) - 1
        self.table = [2] * (1 << table_bits)
        self.stats = BranchStats()

    def predict_and_update(self, site: int, taken: bool) -> bool:
        index = site & self.mask
        counter = self.table[index]
        prediction = counter >= 2
        correct = prediction == taken
        self.stats.branches += 1
        if taken:
            self.stats.taken += 1
            if counter < 3:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1
        if not correct:
            self.stats.mispredictions += 1
        return correct
