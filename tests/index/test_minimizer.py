"""Minimizer seeding: invariants and index behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.minimizer import (
    GraphMinimizerIndex,
    SequenceMinimizerIndex,
    canonical_hash,
    encode_kmer,
    graph_minimizer_index,
    hash64,
    minimizers,
)
from repro.sequence.alphabet import reverse_complement

dna = st.text(alphabet="ACGT", min_size=30, max_size=300)


class TestHashing:
    def test_hash64_is_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_encode_kmer(self):
        assert encode_kmer("AA") == 0
        assert encode_kmer("AC") == 1
        assert encode_kmer("CA") == 4

    def test_encode_rejects_n(self):
        with pytest.raises(IndexError_):
            encode_kmer("AN")

    @given(st.text(alphabet="ACGT", min_size=5, max_size=15))
    @settings(max_examples=40)
    def test_canonical_strand_invariance(self, kmer):
        forward, _ = canonical_hash(kmer)
        backward, _ = canonical_hash(reverse_complement(kmer))
        assert forward == backward


class TestMinimizers:
    @given(dna)
    @settings(max_examples=25, deadline=None)
    def test_positions_valid_and_increasing(self, sequence):
        result = minimizers(sequence, k=11, w=5)
        positions = [m.position for m in result]
        assert positions == sorted(positions)
        assert all(0 <= p <= len(sequence) - 11 for p in positions)

    @given(dna)
    @settings(max_examples=25, deadline=None)
    def test_window_density(self, sequence):
        # Every window of w k-mers contributes a minimizer: gaps bounded.
        result = minimizers(sequence, k=11, w=5)
        positions = [m.position for m in result]
        for a, b in zip(positions, positions[1:]):
            assert b - a <= 5

    def test_short_sequence_empty(self):
        assert minimizers("ACG", k=11, w=5) == []

    def test_n_kmers_skipped(self):
        result = minimizers("ACGTN" * 10, k=5, w=3)
        assert result == []

    def test_args_validated(self):
        with pytest.raises(IndexError_):
            minimizers("ACGT", k=1, w=5)


class TestSequenceIndex:
    def test_finds_embedded_copy(self):
        reference = "TTTT" + "ACGTACGGTACGTTACG" * 3 + "GGGG"
        index = SequenceMinimizerIndex(k=7, w=3)
        index.add("ref", reference)
        seeds = index.seeds_for("ACGTACGGTACGTTACG")
        assert seeds, "expected at least one seed"
        assert all(name == "ref" for _rp, name, _tp, _o in seeds)

    def test_distinct_minimizers_counted(self):
        index = SequenceMinimizerIndex(k=7, w=3)
        index.add("ref", "ACGTACGTTGCAACGT" * 4)
        assert index.distinct_minimizers > 0


class TestGraphIndex:
    def test_requires_paths(self, small_graph_pangenome):
        from repro.graph.model import SequenceGraph

        empty = SequenceGraph()
        empty.add_node(0, "ACGT")
        with pytest.raises(IndexError_):
            GraphMinimizerIndex(empty)

    def test_seeds_land_on_path_nodes(self, small_graph_pangenome):
        graph = small_graph_pangenome.graph
        index = GraphMinimizerIndex(graph, k=15, w=10)
        haplotype = small_graph_pangenome.haplotypes[0]
        query = haplotype.sequence[100:250]
        seeds = index.seeds_for(query)
        assert seeds
        path_nodes = set(graph.path(haplotype.name).nodes)
        assert any(seed.node_id in path_nodes for seed in seeds)

    def test_oriented_seeds_flip(self, small_graph_pangenome):
        graph = small_graph_pangenome.graph
        index = GraphMinimizerIndex(graph, k=15, w=10)
        query = small_graph_pangenome.haplotypes[0].sequence[100:250]
        seeds_f, oriented_f = index.oriented_seeds(query)
        seeds_r, oriented_r = index.oriented_seeds(reverse_complement(query))
        assert oriented_f == query  # not flipped
        assert oriented_r == query  # flipped back to the forward strand
        assert {(s.node_id, s.node_offset) for s in seeds_f} == {
            (s.node_id, s.node_offset) for s in seeds_r
        }

    def test_cached_index_matches_a_fresh_build(self, small_graph_pangenome):
        graph = small_graph_pangenome.graph
        cached = graph_minimizer_index(graph, k=15, w=10)
        assert graph_minimizer_index(graph, k=15, w=10) is cached
        assert graph_minimizer_index(graph, k=17, w=20) is not cached
        fresh = GraphMinimizerIndex(graph, k=15, w=10)
        for haplotype in small_graph_pangenome.haplotypes:
            for query in (haplotype.sequence[100:250],
                          reverse_complement(haplotype.sequence[900:1200])):
                assert cached.seeds_for(query) == fresh.seeds_for(query)
                assert (cached.oriented_seeds(query)
                        == fresh.oriented_seeds(query))

    def test_repetitive_minimizers_capped(self, small_graph_pangenome):
        graph = small_graph_pangenome.graph
        index = GraphMinimizerIndex(graph, k=15, w=10)
        query = small_graph_pangenome.haplotypes[0].sequence[:200]
        few = index.seeds_for(query, max_hits_per_minimizer=1)
        many = index.seeds_for(query, max_hits_per_minimizer=1000)
        assert len(few) <= len(many)
