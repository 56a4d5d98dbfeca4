"""Golden probe-call streams for the striped aligners (SSW and GSSW).

A recording probe captures every ``(method, args)`` call the aligners
make, arrays compared by value, for a fixed set of inputs.  The stream's
hash is pinned, so any reordering, merging or splitting of probe calls
fails here even when the machine summary would not notice.  Single
alignments and the lock-step batch entry points must both reproduce it.
"""

import random

import pytest
from recording_probe import RecordingProbe

from repro.align.gssw import GSSW, gssw_align_many
from repro.align.scoring import VG_DEFAULT
from repro.align.smith_waterman import StripedSmithWaterman, ssw_align_many
from repro.graph.model import SequenceGraph
from repro.kernels import create_kernel


def _dna(rng, length, alphabet="ACGT"):
    return "".join(rng.choice(alphabet) for _ in range(length))


def ssw_cases():
    """(query, target, lanes): mixed segment lengths, Ns, 1-bp targets."""
    rng = random.Random(15)
    cases = []
    for qlen, tlen in [(1, 1), (7, 30), (8, 1), (9, 40), (30, 90),
                       (64, 200), (150, 470), (150, 470), (151, 300),
                       (33, 120)]:
        query = _dna(rng, qlen)
        target = list(query * (tlen // qlen + 1))[:tlen]
        for _ in range(tlen // 8):
            target[rng.randrange(tlen)] = rng.choice("ACGTN")
        cases.append((query, "".join(target), 8))
    cases.append((_dna(rng, 20), _dna(rng, 60, "ACGTN"), 2))
    cases.append((_dna(rng, 40), _dna(rng, 60), 16))
    return cases


def gssw_graph(seed, n_nodes, max_len):
    """A DAG whose nodes mostly have several parents."""
    rng = random.Random(seed)
    graph = SequenceGraph()
    for node in range(n_nodes):
        graph.add_node(node, _dna(rng, rng.randint(1, max_len), "ACGTN"))
    for node in range(n_nodes):
        for child in range(node + 1, min(node + 4, n_nodes)):
            if rng.random() < 0.6:
                graph.add_edge(node, child)
    return graph


def gssw_cases():
    """(query, graph, store_full_matrix)."""
    rng = random.Random(16)
    single = SequenceGraph()
    single.add_node(0, _dna(rng, 50))
    cases = [(_dna(rng, 24), single, True), (_dna(rng, 24), single, False)]
    for seed, qlen in [(1, 40), (2, 40), (3, 150), (4, 9), (5, 1)]:
        graph = gssw_graph(seed, n_nodes=12, max_len=40)
        cases.append((_dna(rng, qlen), graph, seed != 2))
    return cases


#: sha256 prefixes of the recorded call streams, pinned from the
#: per-alignment implementation the lock-step engine replaced.
SSW_GOLDEN = "f5934eeedd84418f"
GSSW_GOLDEN = "6a2153458782e749"
#: The ssw and gssw kernels' ``_execute`` streams at scale 0.25, seed 0.
KERNEL_GOLDEN = {"ssw": "8d56073b302ec7ef", "gssw": "b034dce7f4643497"}


def record_ssw_singles():
    probe = RecordingProbe()
    for query, target, lanes in ssw_cases():
        StripedSmithWaterman(query, VG_DEFAULT, lanes=lanes,
                             probe=probe).align(target)
    return probe


def record_gssw_singles():
    probe = RecordingProbe()
    for query, graph, store in gssw_cases():
        GSSW(query, VG_DEFAULT, probe=probe,
             store_full_matrix=store).align(graph)
    return probe


def _runs(cases, key):
    """Consecutive cases sharing *key* (one engine call's settings)."""
    runs = []
    for case in cases:
        if runs and key(runs[-1][0]) == key(case):
            runs[-1].append(case)
        else:
            runs.append([case])
    return runs


def record_ssw_batched():
    probe = RecordingProbe()
    for run in _runs(ssw_cases(), key=lambda case: case[2]):
        pairs = [(query, target) for query, target, _lanes in run]
        list(ssw_align_many(pairs, VG_DEFAULT, lanes=run[0][2], probe=probe))
    return probe


def record_gssw_batched():
    probe = RecordingProbe()
    for run in _runs(gssw_cases(), key=lambda case: case[2]):
        items = [(query, graph) for query, graph, _store in run]
        list(gssw_align_many(items, VG_DEFAULT, probe=probe,
                             store_full_matrix=run[0][2]))
    return probe


class TestGoldenStreams:
    def test_ssw_singles(self, fresh_target_space):
        assert record_ssw_singles().digest() == SSW_GOLDEN

    def test_gssw_singles(self):
        assert record_gssw_singles().digest() == GSSW_GOLDEN

    def test_ssw_batched(self, fresh_target_space):
        assert record_ssw_batched().digest() == SSW_GOLDEN

    def test_gssw_batched(self):
        assert record_gssw_batched().digest() == GSSW_GOLDEN

    @pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN))
    def test_kernel_execute(self, name, fresh_target_space):
        kernel = create_kernel(name, scale=0.25, seed=0)
        kernel.ensure_prepared()
        probe = RecordingProbe()
        kernel._execute(probe)
        assert probe.digest() == KERNEL_GOLDEN[name]
