"""Paper phase orderings (Figures 2 and 3) held from real span data.

The Figure 2/3 artifacts are regenerated from the span-backed
:class:`~repro.tools.base.StageTimer`; these tests pin the orderings the
paper reports — derived here from the ``stage/<name>`` span records a
real tracer collects, not from the timer's own bookkeeping — so a
regression in either the instrumentation or the tool models shows up as
a broken ordering, not just a changed chart.
"""

import pytest

from repro.data import corpus
from repro.layout.pgsgd import PGSGDParams
from repro.obs import trace
from repro.obs.spans import Tracer
from repro.sequence.simulate import simulate_pangenome
from repro.tools import GraphAligner, Minigraph
from repro.tools.pipelines import run_minigraph_cactus, run_pggb

TEST_SCALE = 0.25


def _span_stage_seconds(tracer):
    """Aggregate ``stage/<name>`` span durations by stage name."""
    seconds: dict[str, float] = {}
    for record in tracer.records():
        if record["name"].startswith("stage/"):
            stage = record["name"][len("stage/"):]
            seconds[stage] = seconds.get(stage, 0.0) + record["dur"]
    return seconds


@pytest.fixture(scope="module")
def long_reads():
    data = corpus("default", TEST_SCALE, 0)
    return data.graph, list(data.long_reads)[:5]


@pytest.fixture(scope="module")
def assemblies():
    return simulate_pangenome(
        genome_length=3000, n_haplotypes=4, seed=3
    ).records


FAST_LAYOUT = PGSGDParams(iterations=3, updates_per_iteration=300)


class TestMappingPhaseOrdering:
    def test_graphaligner_is_alignment_dominant(self, long_reads):
        graph, reads = long_reads
        tracer = Tracer()
        with trace.use(tracer):
            GraphAligner(graph).map_reads(reads)
        seconds = _span_stage_seconds(tracer)
        total = sum(seconds.values())
        # Paper Figure 2: ~90% alignment, clustering tiny.
        assert seconds["align"] > 0.7 * total
        assert seconds.get("cluster", 0.0) < 0.15 * total

    def test_minigraph_chains_more_than_it_aligns(self, long_reads):
        graph, reads = long_reads
        tracer = Tracer()
        with trace.use(tracer):
            Minigraph(graph).map_reads(reads)
        seconds = _span_stage_seconds(tracer)
        # Paper Figure 2: chaining (the cluster stage, GWFA inside)
        # outweighs base-level alignment.
        assert seconds["cluster"] > seconds.get("align", 0.0)

    def test_span_seconds_match_stage_timer(self, long_reads):
        graph, reads = long_reads
        tracer = Tracer()
        with trace.use(tracer):
            run = GraphAligner(graph).map_reads(reads)
        seconds = _span_stage_seconds(tracer)
        for stage, timed in run.timer.seconds.items():
            assert seconds[stage] == pytest.approx(timed, rel=1e-6)


class TestBuildPhaseOrdering:
    def test_pggb_alignment_is_major(self, assemblies):
        tracer = Tracer()
        with trace.use(tracer):
            run_pggb(assemblies, layout_params=FAST_LAYOUT)
        seconds = _span_stage_seconds(tracer)
        # Paper Figure 3: all-to-all alignment is a major PGGB cost.
        assert seconds["alignment"] > 0.15 * sum(seconds.values())

    def test_minigraph_cactus_alignment_is_major(self, assemblies):
        tracer = Tracer()
        with trace.use(tracer):
            run_minigraph_cactus(assemblies, layout_params=FAST_LAYOUT)
        seconds = _span_stage_seconds(tracer)
        assert seconds["alignment"] > 0.15 * sum(seconds.values())

    def test_build_stage_spans_nest_pipeline_spans(self, assemblies):
        tracer = Tracer()
        with trace.use(tracer):
            run_pggb(assemblies, layout_params=FAST_LAYOUT)
        names = {record["name"] for record in tracer.records()}
        # PGGB's stages carry the wfmash/seqwish/smoothxg instrumentation.
        assert {"wfmash/sketch", "wfmash/map"} <= names
        assert "seqwish/closure" in names
        assert {"smoothxg/bucket", "smoothxg/cut", "smoothxg/poa"} <= names

    def test_cactus_spans_cover_seed_thread_polish(self, assemblies):
        tracer = Tracer()
        with trace.use(tracer):
            run_minigraph_cactus(assemblies, layout_params=FAST_LAYOUT)
        names = {record["name"] for record in tracer.records()}
        assert {"cactus/seed", "cactus/thread"} <= names
        # MC polishes with GFAffix, whose two rules are spanned.
        assert {"gfaffix/siblings", "gfaffix/prefixes"} <= names
