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
#: vectorized gshare scan loses to the per-event loop.
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
        self.table = [2] * (1 << table_bits)  # weakly taken
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
        transition maps over the four counter states and the sequential
        dependence collapses into a log-depth prefix composition of
        those maps (a Hillis-Steele scan with ``np.take_along_axis``).
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
        bits = taken.astype(np.int64)
        hb = self.history_bits
        seed = np.empty(hb, dtype=np.int64)
        for k in range(hb):
            seed[k] = (self.history >> (hb - 1 - k)) & 1
        ext = np.concatenate([seed, bits])
        windows = np.lib.stride_tricks.sliding_window_view(ext, hb)
        powers = np.left_shift(1, np.arange(hb - 1, -1, -1, dtype=np.int64))
        histories = windows @ powers  # n + 1 values; last = final history
        indices = (sites ^ histories[:n]) & self.mask
        order = _stable_argsort(indices, self.mask + 1)
        sorted_idx = indices[order]
        sorted_out = bits[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (sorted_idx[1:] != sorted_idx[:-1]) | (
            sorted_out[1:] != sorted_out[:-1]
        )
        run_starts = np.flatnonzero(change)
        run_lengths = np.diff(np.append(run_starts, n))
        runs = run_starts.shape[0]
        cells = sorted_idx[run_starts]
        run_taken = sorted_out[run_starts] != 0
        # Each run's effect as a map over the four counter states: a
        # taken run of length L is a saturating add of L, a not-taken
        # run a saturating subtract, and its mispredictions are the
        # steps spent on the wrong side of the 2-bit threshold.
        states = np.arange(4, dtype=np.int64)
        lengths = run_lengths[:, None]
        transition = np.where(
            run_taken[:, None],
            np.minimum(3, states[None, :] + lengths),
            np.maximum(0, states[None, :] - lengths),
        )
        mispredict_map = np.where(
            run_taken[:, None],
            np.minimum(lengths, np.maximum(0, 2 - states)[None, :]),
            np.minimum(lengths, np.maximum(0, states - 1)[None, :]),
        )
        # Prefix-compose transitions within each cell's run group
        # (log-depth scan); scan[r] then maps a cell's starting counter
        # to its value after runs first..r.
        scan = transition.copy()
        shift = 1
        while shift < runs:
            same_cell = np.zeros(runs, dtype=bool)
            same_cell[shift:] = cells[shift:] == cells[:-shift]
            if not same_cell.any():
                break
            targets = np.flatnonzero(same_cell)
            composed = np.take_along_axis(
                scan[targets], scan[targets - shift], axis=1
            )
            scan[targets] = composed
            shift *= 2
        table_np = np.asarray(self.table, dtype=np.int64)
        initial = table_np[cells]
        first_of_cell = np.empty(runs, dtype=bool)
        first_of_cell[0] = True
        first_of_cell[1:] = cells[1:] != cells[:-1]
        start_counter = np.empty(runs, dtype=np.int64)
        start_counter[first_of_cell] = initial[first_of_cell]
        continuing = np.flatnonzero(~first_of_cell)
        start_counter[continuing] = scan[continuing - 1, initial[continuing]]
        mispredictions = int(
            mispredict_map[np.arange(runs), start_counter].sum()
        )
        last_of_cell = np.empty(runs, dtype=bool)
        last_of_cell[-1] = True
        last_of_cell[:-1] = first_of_cell[1:]
        last_runs = np.flatnonzero(last_of_cell)
        final_counters = scan[last_runs, initial[last_runs]]
        table = self.table
        for cell, value in zip(cells[last_runs].tolist(),
                               final_counters.tolist()):
            table[cell] = value
        self.stats.branches += n
        self.stats.taken += int(bits.sum())
        self.stats.mispredictions += mispredictions
        self.history = int(histories[n])


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
