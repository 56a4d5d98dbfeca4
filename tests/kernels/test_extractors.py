"""Kernel dataset extraction helpers (the tool-boundary dumps)."""

from repro.data import ArtifactStore, use_store
from repro.index.minimizer import GraphMinimizerIndex
from repro.kernels import create_kernel
from repro.kernels.gbv_kernel import extract_gbv_inputs
from repro.kernels.gssw_kernel import extract_gssw_inputs
from repro.kernels.gwfa_kernel import extract_gwfa_inputs
from repro.kernels.ssw_kernel import extract_ssw_inputs
from repro.graph.ops import is_acyclic


class TestGsswExtraction:
    def test_subgraphs_are_acyclic(self, small_suite):
        items = extract_gssw_inputs(
            small_suite.graph, list(small_suite.short_reads)[:8]
        )
        assert items
        for query, subgraph in items:
            assert is_acyclic(subgraph)
            assert len(query) >= 20
            assert subgraph.node_count >= 1

    def test_subgraph_size_tracks_radius(self, small_suite):
        reads = list(small_suite.short_reads)[:5]
        small = extract_gssw_inputs(small_suite.graph, reads, context_radius=30)
        large = extract_gssw_inputs(small_suite.graph, reads, context_radius=400)
        mean_small = sum(s.total_sequence_length for _q, s in small) / len(small)
        mean_large = sum(s.total_sequence_length for _q, s in large) / len(large)
        assert mean_large > mean_small


class TestGbvExtraction:
    def test_long_read_clusters(self, small_suite):
        items = extract_gbv_inputs(small_suite.graph, list(small_suite.long_reads)[:3])
        assert items
        for query, subgraph in items:
            assert subgraph.total_sequence_length > 100


class TestGwfaExtraction:
    def test_gaps_are_bounded(self, small_suite):
        items = extract_gwfa_inputs(
            small_suite.graph, list(small_suite.long_reads)[:3], max_gap=200
        )
        assert items
        for gap, start_node in items:
            assert 0 < len(gap) <= 200
            assert start_node in small_suite.graph


class TestSswExtraction:
    def test_windows_come_from_reference(self, small_suite):
        items = extract_ssw_inputs(
            small_suite.reference, list(small_suite.short_reads)[:8]
        )
        assert items
        for _query, window in items:
            assert window in small_suite.reference.sequence


class TestSharedMinimizerIndex:
    def test_one_index_build_per_k_w(self, tmp_path, monkeypatch):
        """gbv and gwfa-lr share their (17, 20) index: one cold prepare
        of the four seed-based kernels builds three indexes."""
        built = []
        build = GraphMinimizerIndex._build

        def counting_build(self, *args):
            built.append((self.k, self.w))
            return build(self, *args)

        monkeypatch.setattr(GraphMinimizerIndex, "_build", counting_build)
        with use_store(ArtifactStore(tmp_path)):
            for name in ("gbv", "gwfa-lr", "gwfa-cr", "gssw"):
                create_kernel(name, scale=0.05).ensure_prepared()
        assert sorted(built) == [(15, 10), (17, 20), (17, 30)]
