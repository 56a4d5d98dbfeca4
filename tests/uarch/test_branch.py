"""Branch predictors."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch import (
    BRANCH_BATCH_CUTOFF,
    BimodalPredictor,
    GsharePredictor,
)


class TestGshare:
    def test_learns_constant_direction(self):
        predictor = GsharePredictor()
        for _ in range(100):
            predictor.predict_and_update(1, True)
        assert predictor.stats.misprediction_rate < 0.1

    def test_random_stream_mispredicts(self):
        predictor = GsharePredictor()
        rng = random.Random(0)
        for _ in range(2000):
            predictor.predict_and_update(1, rng.random() < 0.5)
        assert predictor.stats.misprediction_rate > 0.3

    def test_learns_alternating_pattern_via_history(self):
        predictor = GsharePredictor()
        for i in range(2000):
            predictor.predict_and_update(1, i % 2 == 0)
        assert predictor.stats.misprediction_rate < 0.2

    def test_counts(self):
        predictor = GsharePredictor()
        predictor.predict_and_update(1, True)
        predictor.predict_and_update(1, False)
        assert predictor.stats.branches == 2
        assert predictor.stats.taken == 1

    @given(
        n=st.one_of(st.integers(min_value=0, max_value=40),
                    st.sampled_from([BRANCH_BATCH_CUTOFF - 1,
                                     BRANCH_BATCH_CUTOFF, 600])),
        n_sites=st.integers(min_value=1, max_value=9),
        bias=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=999),
        warmup=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_site_block_matches_scalar(self, n, n_sites, bias, seed,
                                             warmup):
        """One block over per-event sites replays exactly like the
        per-event loop, from a trained (non-initial) predictor state."""
        rng = np.random.default_rng(seed)
        site_pool = rng.integers(0, 1 << 14, size=n_sites)
        sites = site_pool[rng.integers(0, n_sites, size=n)]
        outcomes = rng.random(n) < bias
        scalar, block = GsharePredictor(), GsharePredictor()
        for predictor in (scalar, block):
            for i in range(warmup):
                predictor.predict_and_update(i * 7, i % 3 == 0)
        for site, taken in zip(sites.tolist(), outcomes.tolist()):
            scalar.predict_and_update(site, taken)
        block.predict_and_update_block(sites, outcomes)
        assert block.table == scalar.table
        assert block.history == scalar.history
        assert block.stats == scalar.stats

    def test_block_reads_outcomes_as_truth_values(self):
        outcomes = np.random.default_rng(1).integers(0, 3, size=300)
        scalar, block = GsharePredictor(), GsharePredictor()
        for taken in outcomes.tolist():
            scalar.predict_and_update(5, bool(taken))
        block.predict_and_update_block(5, outcomes)
        assert block.stats == scalar.stats
        assert block.history == scalar.history
        assert block.table == scalar.table


    @given(
        runs=st.lists(st.tuples(st.booleans(),
                                st.integers(min_value=1, max_value=24)),
                      min_size=1, max_size=5),
        n=st.integers(min_value=BRANCH_BATCH_CUTOFF,
                      max_value=4 * BRANCH_BATCH_CUTOFF),
        n_sites=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=999),
        warmup=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_saturating_runs_match_scalar(self, runs, n, n_sites, seed,
                                         warmup):
        """A repeating run-length pattern from a trained state.  Runs of 3
        or more saturate a counter.  A run longer than the history
        fills it with one direction, so with one site every later step
        of the run and the step after it share a cell: each period adds
        runs of both directions to that cell."""
        rng = np.random.default_rng(seed)
        pattern = [taken for taken, length in runs for _ in range(length)]
        outcomes = np.resize(np.array(pattern, dtype=bool), n)
        sites = rng.integers(0, 1 << 14, size=n_sites)[
            np.arange(n) % n_sites]
        training = list(zip(rng.integers(64, size=warmup).tolist(),
                            (rng.random(warmup) < 0.7).tolist()))
        scalar, block = GsharePredictor(), GsharePredictor()
        for predictor in (scalar, block):
            for site, taken in training:
                predictor.predict_and_update(site, taken)
        for site, taken in zip(sites.tolist(), outcomes.tolist()):
            scalar.predict_and_update(site, taken)
        block.predict_and_update_block(sites, outcomes)
        assert list(block.table) == list(scalar.table)
        assert block.history == scalar.history
        assert block.stats == scalar.stats


class TestBimodal:
    def test_biased_stream_predicted(self):
        predictor = BimodalPredictor()
        rng = random.Random(1)
        for _ in range(2000):
            predictor.predict_and_update(7, rng.random() < 0.9)
        assert predictor.stats.misprediction_rate < 0.25

    def test_cannot_learn_alternation(self):
        predictor = BimodalPredictor()
        for i in range(2000):
            predictor.predict_and_update(1, i % 2 == 0)
        assert predictor.stats.misprediction_rate > 0.4
