"""The benchmark suite: registry, execution, validation, determinism."""

import pytest

from repro.errors import KernelError
from repro.kernels import (
    CPU_KERNELS,
    SUITE_KERNELS,
    create_kernel,
    kernel_names,
)

SCALE = 0.25


@pytest.fixture(scope="module")
def results():
    """Run every kernel once at test scale."""
    out = {}
    for name in kernel_names():
        kernel = create_kernel(name, scale=SCALE, seed=0)
        out[name] = (kernel, kernel.run())
    return out


class TestRegistry:
    def test_all_suite_kernels_registered(self):
        names = kernel_names()
        for name in SUITE_KERNELS:
            assert name in names
        assert "ssw" in names  # case-study baseline

    def test_eight_suite_kernels(self):
        assert len(SUITE_KERNELS) == 8

    def test_unknown_name_rejected(self):
        with pytest.raises(KernelError):
            create_kernel("nope")

    def test_bad_scale_rejected(self):
        with pytest.raises(KernelError):
            create_kernel("gssw", scale=0)


class TestExecution:
    def test_every_kernel_produces_work(self, results):
        for name, (_kernel, result) in results.items():
            assert result.inputs_processed > 0, name
            assert result.wall_seconds > 0, name
            assert result.work, name

    def test_metadata_present(self, results):
        for name, (kernel, _result) in results.items():
            assert kernel.name == name
            assert kernel.parent_tool
            assert kernel.input_type

    @pytest.mark.parametrize("name", sorted(set(CPU_KERNELS) | {"tsu", "ssw"}))
    def test_validate_passes(self, name, results):
        kernel, _ = results[name]
        kernel.validate()

    def test_work_counters_deterministic(self):
        a = create_kernel("gbwt", scale=SCALE, seed=0).run()
        b = create_kernel("gbwt", scale=SCALE, seed=0).run()
        assert a.work == b.work
        assert a.inputs_processed == b.inputs_processed

    def test_rate(self, results):
        _, result = results["gbwt"]
        assert result.rate() > 0


class TestDatasets:
    def test_suite_data_memoized(self):
        from repro.data import corpus

        assert corpus("default", SCALE, 0) is corpus("default", SCALE, 0)

    def test_gbwt_queries_are_real_subpaths(self, small_suite):
        from repro.data import gbwt_queries

        graph = small_suite.graph
        paths = [tuple(graph.path(n).nodes) for n in graph.path_names()]
        for query in gbwt_queries(graph, 20, seed=1):
            assert any(
                path[i : i + len(query)] == query
                for path in paths
                for i in range(len(path) - len(query) + 1)
            )

    def test_tsu_pairs_shape(self):
        from repro.data import tsu_pairs

        pairs = tsu_pairs(3, 200, error_rate=0.01, seed=2)
        assert len(pairs) == 3
        for a, b in pairs:
            assert len(a) == 200
            assert abs(len(b) - 200) < 20

    def test_held_out_differs_from_haplotypes(self, small_suite):
        names = {r.name for r in small_suite.assemblies}
        assert small_suite.held_out.name not in names
