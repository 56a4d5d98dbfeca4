"""End-to-end mapping tools: accuracy and stage structure."""

import pytest

from repro.errors import ReproError
from repro.sequence.simulate import ILLUMINA, ReadProfile, ReadSimulator
from repro.tools import BwaMem, Giraffe, GraphAligner, Minigraph, MinigraphConfig, VgMap


@pytest.fixture(scope="module")
def corpus(small_suite_module):
    return small_suite_module


@pytest.fixture(scope="module")
def small_suite_module():
    from repro.data import corpus

    return corpus("default", 0.25, 0)


@pytest.fixture(scope="module")
def short_reads(small_suite_module):
    return list(small_suite_module.short_reads)[:15]


@pytest.fixture(scope="module")
def long_reads(small_suite_module):
    return list(small_suite_module.long_reads)[:4]


class TestVgMap:
    def test_maps_most_reads(self, small_suite_module, short_reads):
        run = VgMap(small_suite_module.graph).map_reads(short_reads)
        assert run.mapped_fraction >= 0.8
        assert set(run.timer.seconds) >= {"seed", "cluster", "align"}

    def test_counters(self, small_suite_module, short_reads):
        run = VgMap(small_suite_module.graph).map_reads(short_reads)
        assert run.counters["seeds"] > 0
        assert run.counters["dp_cells"] > 0


class TestGiraffe:
    def test_maps_most_reads(self, small_suite_module, short_reads):
        run = Giraffe(small_suite_module.graph).map_reads(short_reads)
        assert run.mapped_fraction >= 0.8

    def test_most_reads_resolved_by_extension(self, small_suite_module, short_reads):
        run = Giraffe(small_suite_module.graph).map_reads(short_reads)
        resolved = run.counters.get("resolved_by_extension", 0)
        assert resolved >= 0.6 * len(short_reads)
        assert run.counters["gbwt_extends"] > 0

    def test_faster_than_vg_map(self, small_suite_module, short_reads):
        giraffe = Giraffe(small_suite_module.graph).map_reads(short_reads)
        vg = VgMap(small_suite_module.graph).map_reads(short_reads)
        assert giraffe.timer.total < vg.timer.total


class TestGraphAligner:
    def test_maps_long_reads(self, small_suite_module, long_reads):
        run = GraphAligner(small_suite_module.graph).map_reads(long_reads)
        assert run.mapped_fraction >= 0.75

    def test_alignment_dominates(self, small_suite_module, long_reads):
        run = GraphAligner(small_suite_module.graph).map_reads(long_reads)
        fractions = run.timer.fractions()
        assert fractions["align"] > 0.7
        assert fractions.get("cluster", 0.0) < 0.2


class TestMinigraph:
    def test_maps_long_reads(self, small_suite_module, long_reads):
        run = Minigraph(small_suite_module.graph).map_reads(long_reads)
        assert run.mapped_fraction >= 0.75

    def test_chaining_heavy(self, small_suite_module, long_reads):
        run = Minigraph(small_suite_module.graph).map_reads(long_reads)
        fractions = run.timer.fractions()
        assert fractions["cluster"] > fractions.get("align", 0.0)

    def test_gwfa_bridges_counted(self, small_suite_module, long_reads):
        run = Minigraph(small_suite_module.graph).map_reads(long_reads)
        assert run.counters.get("gwfa_states", 0) > 0

    def test_cr_mode_skips_base_level(self, small_suite_module):
        config = MinigraphConfig(mode="cr")
        assert config.base_level is False
        assert config.max_gwfa_gap == 4000

    def test_bad_mode_rejected(self):
        from repro.errors import AlignmentError

        with pytest.raises(AlignmentError):
            MinigraphConfig(mode="xx")


class TestBwa:
    def test_maps_most_reads(self, small_suite_module, short_reads):
        run = BwaMem(small_suite_module.reference).map_reads(short_reads)
        assert run.mapped_fraction >= 0.8

    def test_faster_than_any_graph_mapper(self, small_suite_module, short_reads):
        bwa = BwaMem(small_suite_module.reference).map_reads(short_reads)
        vg = VgMap(small_suite_module.graph).map_reads(short_reads)
        assert bwa.timer.total < vg.timer.total


class TestToolRun:
    def test_empty_reads_rejected(self, small_suite_module):
        with pytest.raises(ReproError):
            BwaMem(small_suite_module.reference).map_reads([])

    def test_summary_shape(self, small_suite_module, short_reads):
        run = BwaMem(small_suite_module.reference).map_reads(short_reads[:3])
        summary = run.summary()
        assert summary["tool"] == "bwa_mem"
        assert summary["reads"] == 3
