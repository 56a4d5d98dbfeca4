"""PGSGD-GPU: Table 7 occupancy shape and convergence parity."""

import pytest

from repro.errors import SimulationError
from repro.layout.pgsgd import PGSGDParams
from repro.layout.pgsgd_gpu import pgsgd_layout_gpu


PARAMS = PGSGDParams(iterations=8, updates_per_iteration=3000, seed=5,
                     initialization="random")


class TestOccupancy:
    def test_block_1024_theoretical_two_thirds(self, small_graph_pangenome):
        result = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS, block_size=1024)
        assert abs(result.report.theoretical_occupancy - 2 / 3) < 0.01

    def test_block_256_improves_occupancy(self, small_graph_pangenome):
        big = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS, block_size=1024)
        small = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS, block_size=256)
        assert abs(small.report.theoretical_occupancy - 5 / 6) < 0.01
        assert small.report.achieved_occupancy > big.report.achieved_occupancy

    def test_achieved_below_theoretical(self, small_graph_pangenome):
        report = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS).report
        assert report.achieved_occupancy < report.theoretical_occupancy

    def test_warp_utilization_high(self, small_graph_pangenome):
        report = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS).report
        assert 0.8 < report.warp_utilization < 0.95


class TestBehaviour:
    def test_layout_converges_like_cpu(self, small_graph_pangenome):
        result = pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS)
        history = result.layout.stress_history
        assert history[-1] < 0.2 * history[0]

    def test_bad_block_size_rejected(self, small_graph_pangenome):
        with pytest.raises(SimulationError):
            pgsgd_layout_gpu(small_graph_pangenome.graph, PARAMS, block_size=100)


class TestRegisteredGpuBackend:
    """The simulator is the registered ``gpu`` backend of the ``pgsgd``
    kernel: a normal harness run on that backend must come back with
    the Table 7 SIMT counters and pass the claims measured on it."""

    def test_kernel_report_carries_gpu_counters(
            self, _isolated_dataset_store):
        from repro.claims import evaluate
        from repro.harness.runner import run_kernel_studies

        report = run_kernel_studies("pgsgd", studies=("timing", "gpu"),
                                    scale=0.25, backend="gpu")
        assert report.error is None
        assert report.backend == "gpu"
        assert abs(report.gpu["theoretical_occupancy"] - 2 / 3) < 0.01
        assert 0 < report.gpu["achieved_occupancy"] \
            <= report.gpu["theoretical_occupancy"]
        assert report.gpu["gpu_time_ms"] > 0
        assert report.gpu["warp_utilization"] > 0.8
        assert evaluate([report]) == [()]

    def test_gpu_layout_work_matches_vectorized_convergence(
            self, _isolated_dataset_store):
        from repro.kernels import create_kernel

        gpu = create_kernel("pgsgd", scale=0.25, backend="gpu")
        cpu = create_kernel("pgsgd", scale=0.25, backend="vectorized")
        gpu_result = gpu.run()
        cpu_result = cpu.run()
        # Same update schedule; both anneal to a much lower stress.
        assert gpu_result.work["updates"] == cpu_result.work["updates"]
        for result in (gpu_result, cpu_result):
            assert (result.work["final_stress"]
                    < result.work["initial_stress"])


class TestCrossoverModels:
    """The calibrated wall models behind bench_layout_crossover."""

    def test_cpu_model_is_size_dependent(self):
        from repro.layout.pgsgd_gpu import cpu_pgsgd_time_model

        small = cpu_pgsgd_time_model(1_000, updates=100_000)
        large = cpu_pgsgd_time_model(10_000_000, updates=100_000)
        assert large > 3 * small  # cache ladder -> DRAM latency

    def test_gpu_model_charges_fixed_overheads(self):
        from repro.layout.pgsgd_gpu import (
            GPU_LAUNCH_SECONDS,
            gpu_pgsgd_wall_model,
        )

        zero_work = gpu_pgsgd_wall_model(0.0, n_anchors=0, updates=0,
                                         iterations=30)
        assert zero_work == pytest.approx(30 * GPU_LAUNCH_SECONDS)
        with_transfer = gpu_pgsgd_wall_model(0.0, n_anchors=1 << 20,
                                             updates=0, iterations=30)
        assert with_transfer > zero_work

    def test_models_cross_over(self):
        from repro.layout.pgsgd_gpu import (
            cpu_pgsgd_time_model,
            gpu_pgsgd_wall_model,
        )

        per_update = 2e-10  # a measured device rate's order of magnitude
        small, large = 500, 1_000_000
        for nodes, gpu_wins in ((small, False), (large, True)):
            cpu = cpu_pgsgd_time_model(2 * nodes, updates=100 * nodes)
            gpu = gpu_pgsgd_wall_model(per_update, 2 * nodes,
                                       updates=100 * nodes, iterations=30)
            assert (cpu > gpu) == gpu_wins, nodes
