"""TSU: exact distances plus the divergence signature of Figure 9."""

import pytest

from repro.align.myers import edit_distance
from repro.errors import SimulationError
from repro.gpu.tsu import cpu_wfa_time_model, tsu_align_batch
from repro.data import tsu_pairs


class TestTSU:
    def test_distances_exact(self):
        pairs = tsu_pairs(3, 250, error_rate=0.02, seed=1)
        result = tsu_align_batch(pairs)
        for (a, b), got in zip(pairs, result.distances):
            assert got == edit_distance(a, b)

    def test_single_lane_fraction_grows_with_length(self):
        short = tsu_align_batch(tsu_pairs(3, 128, seed=2))
        long = tsu_align_batch(tsu_pairs(3, 2000, seed=2))
        assert (
            long.single_lane_extend_fraction > short.single_lane_extend_fraction
        )

    def test_warp_utilization_drops_with_length(self):
        short = tsu_align_batch(tsu_pairs(3, 128, seed=3))
        long = tsu_align_batch(tsu_pairs(3, 2000, seed=3))
        assert long.report.warp_utilization < short.report.warp_utilization

    def test_occupancy_one_third(self):
        result = tsu_align_batch(tsu_pairs(2, 200, seed=4))
        assert abs(result.report.theoretical_occupancy - 1 / 3) < 0.01

    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            tsu_align_batch([])

    def test_wrong_block_size_rejected(self):
        with pytest.raises(SimulationError):
            tsu_align_batch(tsu_pairs(1, 100, seed=5), block_size=64)

    def test_cpu_model_scales_with_work(self):
        small = cpu_wfa_time_model(tsu_pairs(2, 200, seed=6))
        large = cpu_wfa_time_model(tsu_pairs(2, 800, seed=6))
        assert large > small
