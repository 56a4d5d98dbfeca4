"""Golden probe-call streams for every CPU kernel.

Each kernel's ``_execute`` stream is recorded call by call at scale 0.05
on two dataset seeds and its hash pinned.  A speed-up that keeps every
hash keeps every probe event, in order and with the same payloads, so
the simulated instrument's summaries cannot move.  GBV additionally
pins two hand-made cases the kernel corpus does not reach: a query
shorter than one 64-cell word, and a cyclic graph with multi-parent
rows.  GWFA pins five: a mid-node start on a cycle that re-enters the
start node, a walk that ends inside the start node's suffix, a graph
sink that needs trailing insertions, chained multi-child spills, and a
query that exceeds ``max_score``.
"""

import random

import pytest
from recording_probe import RecordingProbe

from repro.align.gbv import GBV, graph_edit_distance_scalar
from repro.align.gwfa import graph_edit_distance_from, gwfa_align
from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.kernels import create_kernel

#: sha256 prefixes of ``kernel._execute`` streams, (kernel, seed) ->
#: hash, at scale 0.05.
KERNEL_GOLDEN = {
    ("gbv", 0): "105c0984bfdd5752",
    ("gbv", 1): "67efb61d2607ecd1",
    ("gbwt", 0): "1c835b721d61df9c",
    ("gbwt", 1): "0ec24a7e08e4f5c4",
    ("gssw", 0): "86976ed117e796e9",
    ("gssw", 1): "ef4044ceaa383e17",
    ("gwfa-cr", 0): "0c45e580dae4bab3",
    ("gwfa-cr", 1): "e58141358cf6efe6",
    ("gwfa-lr", 0): "dba8e092278b477d",
    ("gwfa-lr", 1): "0282c25442c05f58",
    ("pgsgd", 0): "3f8fea0a993f3688",
    ("pgsgd", 1): "17da0bb3d3b8ba0a",
    ("ssw", 0): "c346a3ad08ae9519",
    ("ssw", 1): "e1ec0fac7ac283f9",
    ("tc", 0): "f1f3745e163acaf0",
    ("tc", 1): "a92f255a48e9b282",
}


@pytest.mark.parametrize("name, seed", sorted(KERNEL_GOLDEN))
def test_kernel_execute_stream(name, seed, fresh_target_space):
    kernel = create_kernel(name, scale=0.05, seed=seed)
    kernel.ensure_prepared()
    probe = RecordingProbe()
    kernel._execute(probe)
    assert probe.digest() == KERNEL_GOLDEN[(name, seed)]


def _dna(rng, length):
    return "".join(rng.choice("ACGT") for _ in range(length))


def cyclic_graph():
    """A graph with back edges and several multi-parent nodes."""
    rng = random.Random(7)
    graph = SequenceGraph()
    for node in range(8):
        graph.add_node(node, _dna(rng, rng.randint(1, 12)))
    for source, target in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                           (4, 6), (5, 6), (6, 7), (6, 2), (7, 1), (5, 5)]:
        graph.add_edge(source, target)
    return graph


def gbv_cases():
    """(query, graph): sub-word queries of 17 and 1 bases on a line, then
    queries of 21, 150 and 64 bases on the cyclic multi-parent graph."""
    rng = random.Random(8)
    graph = cyclic_graph()
    line = SequenceGraph()
    line.add_node(0, _dna(rng, 40))
    line.add_node(1, _dna(rng, 30))
    line.add_edge(0, 1)
    return [
        (_dna(rng, 17), line),
        (_dna(rng, 1), line),
        (_dna(rng, 21), graph),
        (_dna(rng, 150), graph),
        (_dna(rng, 64), graph),
    ]


#: sha256 prefix of the recorded stream of :func:`gbv_cases`.
GBV_CASES_GOLDEN = "3e0d1b82fd37a9ca"


def test_gbv_cases_stream():
    probe = RecordingProbe()
    for query, graph in gbv_cases():
        GBV(query, probe=probe).align(graph)
    assert probe.digest() == GBV_CASES_GOLDEN


@pytest.mark.parametrize("case", range(5))
def test_gbv_cases_match_oracle(case):
    query, graph = gbv_cases()[case]
    assert (GBV(query).align(graph).distance
            == graph_edit_distance_scalar(query, graph))


def gwfa_cases():
    """(query, graph, start node, start offset, max_score) for GWFA."""
    # A start at offset 6 of node 0 on a cycle back into node 0, so the
    # walk sees the start suffix first and the full node on re-entry.
    cycle = SequenceGraph()
    for node, sequence in enumerate(["ACGTTGCAAC", "GAT", "CC"]):
        cycle.add_node(node, sequence)
    for source, target in [(0, 1), (1, 2), (2, 0), (1, 0)]:
        cycle.add_edge(source, target)
    # A sink two bases after the start: the query's tail is insertions.
    sink = SequenceGraph()
    sink.add_node(0, "ACGTAC")
    sink.add_node(1, "GT")
    sink.add_edge(0, 1)
    # Layers of 1- and 2-base nodes, each fully joined to the next, so
    # one node end spills into several children that end at once too.
    rng = random.Random(9)
    layered = SequenceGraph()
    layers = [[0]]
    layered.add_node(0, "AC")
    for _ in range(6):
        layer = []
        for _ in range(3):
            node = layered.node_count
            layered.add_node(node, _dna(rng, rng.randint(1, 2)))
            layer.append(node)
        for source in layers[-1]:
            for target in layer:
                layered.add_edge(source, target)
        layers.append(layer)
    return [
        ("CAACGATCCACGTAGCAACGATACGTTG", cycle, 0, 6, None),
        ("TGCA", cycle, 0, 4, None),
        ("CGTACGTTTGCA", sink, 0, 1, None),
        ("ACGTACATGCAGTC", layered, 0, 0, None),
        ("GGGGGGTTTTTT", sink, 0, 0, 3),
    ]


#: sha256 prefix of the recorded stream of :func:`gwfa_cases`.
GWFA_CASES_GOLDEN = "11e944eaf4cdc1f6"

#: Per case: (distance, end node, end offset, scores, states_processed,
#: expansions, cells_extended, max_frontier), or None where the query
#: exceeds ``max_score``.
GWFA_CASES_RESULTS = [
    (1, 0, 6, 1, 5, 15, 34, 14),
    (0, 0, 8, 0, 0, 0, 4, 0),
    (5, 1, 2, 5, 20, 2, 9, 5),
    (4, 17, 2, 4, 243, 1548, 94, 117),
    None,
]


def test_gwfa_cases_stream():
    probe = RecordingProbe()
    results = []
    for query, graph, node, offset, max_score in gwfa_cases():
        try:
            result = gwfa_align(query, graph, node, offset, probe=probe,
                                max_score=max_score)
        except AlignmentError:
            results.append(None)
            continue
        stats = result.stats
        results.append((result.distance, result.end_node, result.end_offset,
                        stats.scores, stats.states_processed,
                        stats.expansions, stats.cells_extended,
                        stats.max_frontier))
    assert probe.digest() == GWFA_CASES_GOLDEN
    assert results == GWFA_CASES_RESULTS


@pytest.mark.parametrize("case", range(5))
def test_gwfa_cases_match_oracle(case):
    query, graph, node, offset, max_score = gwfa_cases()[case]
    want = graph_edit_distance_from(query, graph, node, offset)
    if max_score is not None and want > max_score:
        with pytest.raises(AlignmentError):
            gwfa_align(query, graph, node, offset, max_score=max_score)
    else:
        assert gwfa_align(query, graph, node, offset,
                          max_score=max_score).distance == want
