"""PGSGD's fused term sampler against the scalar sampling definition."""

import math
import random

import numpy as np
import pytest

from repro.graph.model import SequenceGraph
from repro.layout.pgsgd import PGSGDLayout, PGSGDParams


def reference_terms(layout, rng, count):
    """Terms as the scalar definition draws them: a step pair from
    :meth:`PathIndex.sample_step_pair`, two random node ends, and
    same-anchor terms dropped."""
    a, b, targets = [], [], []
    for _ in range(count):
        step_a, step_b = layout.index.sample_step_pair(
            rng, zipf_theta=layout.params.zipf_theta)
        end_a = rng.random() < 0.5
        end_b = rng.random() < 0.5
        anchor_a = layout.anchor_of(step_a, end_a)
        anchor_b = layout.anchor_of(step_b, end_b)
        if anchor_a == anchor_b:
            continue
        target = float(abs(layout.anchor_position(step_b, end_b)
                           - layout.anchor_position(step_a, end_a)))
        a.append(anchor_a)
        b.append(anchor_b)
        targets.append(target or 1.0)
    return a, b, targets


def mixed_graph():
    """Paths of 1, 2 (every jump is 1), 3 and 40 steps, with repeats."""
    rng = random.Random(4)
    graph = SequenceGraph()
    for node in range(30):
        graph.add_node(node, "".join(rng.choice("ACGT")
                                     for _ in range(rng.randint(1, 9))))
    walks = {
        "single": [7],
        "pair": [3, 4],
        "triple": [0, 5, 9],
        "long": [rng.randrange(30) for _ in range(40)],
    }
    for name, nodes in walks.items():
        for source, target in zip(nodes, nodes[1:]):
            if target not in graph.successors(source):
                graph.add_edge(source, target)
        graph.add_path(name, nodes)
    return graph


def single_step_graph():
    graph = SequenceGraph()
    graph.add_node(1, "ACGTA")
    graph.add_path("only", [1])
    return graph


@pytest.mark.parametrize("graph_factory", [mixed_graph, single_step_graph])
@pytest.mark.parametrize("theta", [0.9, 0.5])
def test_sample_terms_equal_scalar_definition(graph_factory, theta):
    params = PGSGDParams(seed=11, zipf_theta=theta)
    layout = PGSGDLayout(graph_factory(), params)
    rng = random.Random(29)
    layout._rng = random.Random(29)
    want_a, want_b, want_t = reference_terms(layout, rng, 3000)
    a, b, t = layout._sample_terms(3000)
    assert a.tolist() == want_a
    assert b.tolist() == want_b
    assert t.dtype == np.float64 and t.tolist() == want_t
    assert layout._rng.getstate() == rng.getstate()


def test_sampler_consumes_layout_rng(small_graph_pangenome):
    layout = PGSGDLayout(small_graph_pangenome.graph, PGSGDParams(seed=5))
    rng = random.Random()
    rng.setstate(layout._rng.getstate())
    want = reference_terms(layout, rng, 500)
    got = layout._sample_terms(500)
    assert [column.tolist() for column in got] == list(want)
    assert layout._rng.getstate() == rng.getstate()


def reference_stress(layout, samples=200):
    """Stress as the per-call definition computes it: a fresh
    ``random.Random(1234)`` draw of node-start anchor pairs at every call,
    summed in draw order."""
    rng = random.Random(1234)
    total = 0.0
    count = 0
    for _ in range(samples):
        step_a, step_b = layout.index.sample_step_pair(rng)
        anchor_a = layout.anchor_of(step_a, False)
        anchor_b = layout.anchor_of(step_b, False)
        if anchor_a == anchor_b:
            continue
        target = float(abs(layout.anchor_position(step_b, False)
                           - layout.anchor_position(step_a, False))) or 1.0
        ax, ay = layout.positions[anchor_a]
        bx, by = layout.positions[anchor_b]
        total += ((math.hypot(ax - bx, ay - by) - target) / target) ** 2
        count += 1
    return total / count if count else 0.0


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
@pytest.mark.parametrize("graph_name", ["mixed", "single-step", "pangenome"])
def test_stress_history_equals_per_call_definition(graph_name, backend,
                                                    request, monkeypatch):
    graph = {
        "mixed": mixed_graph,
        "single-step": single_step_graph,
        "pangenome": lambda: request.getfixturevalue(
            "small_graph_pangenome").graph,
    }[graph_name]()
    params = PGSGDParams(seed=3, iterations=6, updates_per_iteration=300)
    layout = PGSGDLayout(graph, params, backend=backend)
    want = []
    real = PGSGDLayout._sample_stress

    def checked(self):
        want.append(reference_stress(self))
        return real(self)

    monkeypatch.setattr(PGSGDLayout, "_sample_stress", checked)
    history = layout.run().stress_history
    assert len(history) == params.iterations + 1
    assert history == want
