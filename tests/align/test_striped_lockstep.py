"""The lock-step striped engine against one-at-a-time alignment.

One ``ssw_align_many`` / ``gssw_align_many`` call must equal N calls of
``align()`` on every result and on the whole machine summary, however
the inputs split into lock-step groups.  The lazy-F edge cases kernel
data never reaches — a loop that runs every pass, an exit on a pass's
last segment — are checked against the scalar segment loops.
"""

import importlib
import random

import numpy as np
import pytest

from repro.align import striped
from repro.align.gssw import GSSW, gssw_align_many
from repro.align.scoring import VG_DEFAULT, AffineScoring
from repro.align.smith_waterman import StripedSmithWaterman, ssw_align_many
from repro.align.striped import base_codes, lockstep
from repro.data.streaming import streaming
from repro.errors import AlignmentError
from repro.graph.model import SequenceGraph
from repro.kernels import create_kernel
from repro.uarch.events import AddressSpace, OpClass
from repro.uarch.machine import TraceMachine

ssw_module = importlib.import_module("repro.align.smith_waterman")

#: Gap penalties so large that the finite -inf sentinel never stops
#: lazy-F: every column runs all ``lanes`` passes.
EXHAUSTING = AffineScoring(match=1, mismatch=4, gap_open=3 * 10**9,
                           gap_extend=1)


@pytest.fixture
def target_space(monkeypatch):
    """Restart SSW's process-wide target address space on demand, so two
    runs compared event for event see the same addresses."""
    def restart():
        monkeypatch.setattr(ssw_module, "_TARGET_SPACE",
                            AddressSpace(base=1 << 33))
    restart()
    return restart


def _dna(rng, length, alphabet="ACGT"):
    return "".join(rng.choice(alphabet) for _ in range(length))


def _ssw_pairs():
    """Interleaved segment lengths (150 bp reads between shorter ones),
    Ns in targets, 1-bp targets, and a lone segment length (a group of
    one)."""
    rng = random.Random(7)
    pairs = []
    for qlen, tlen in [(150, 300), (149, 1), (150, 280), (40, 90), (150, 320),
                       (9, 1), (12, 50), (150, 260), (1, 30), (64, 1)]:
        query = _dna(rng, qlen)
        target = list(query * (tlen // qlen + 1))[:tlen]
        for _ in range(tlen // 6):
            target[rng.randrange(tlen)] = rng.choice("ACGTN")
        pairs.append((query, "".join(target)))
    return pairs


def _dag(seed, n_nodes, max_len):
    """A DAG in which most nodes have two or three parents."""
    rng = random.Random(seed)
    graph = SequenceGraph()
    for node in range(n_nodes):
        graph.add_node(node, _dna(rng, rng.randint(1, max_len), "ACGTN"))
    for node in range(1, n_nodes):
        graph.add_edge(rng.randrange(node), node)
        for parent in range(max(0, node - 3), node):
            if rng.random() < 0.5:
                graph.add_edge(parent, node)
    return graph


def _gssw_items():
    rng = random.Random(8)
    single = SequenceGraph()
    single.add_node(0, _dna(rng, 40))
    items = []
    for seed, qlen in [(1, 150), (2, 150), (3, 40), (4, 150), (5, 1), (6, 150)]:
        items.append((_dna(rng, qlen), _dag(seed, n_nodes=15, max_len=30)))
    items.insert(2, (_dna(rng, 150), single))
    items.append((_dna(rng, 20), single))
    return items


def _ssw_singles(pairs, scoring=VG_DEFAULT, lanes=8, backend="vectorized"):
    machine = TraceMachine()
    results = [StripedSmithWaterman(query, scoring, lanes=lanes, probe=machine,
                                    backend=backend).align(target)
               for query, target in pairs]
    return results, machine.summary()


def _ssw_batched(pairs, scoring=VG_DEFAULT, lanes=8):
    machine = TraceMachine()
    results = list(ssw_align_many(pairs, scoring, lanes=lanes, probe=machine))
    return results, machine.summary()


def _gssw_singles(items, store, scoring=VG_DEFAULT, lanes=8,
                  backend="vectorized"):
    machine = TraceMachine()
    results = [GSSW(query, scoring, lanes=lanes, probe=machine,
                    store_full_matrix=store, backend=backend).align(graph)
               for query, graph in items]
    return results, machine.summary()


def _gssw_batched(items, store, scoring=VG_DEFAULT, lanes=8):
    machine = TraceMachine()
    results = list(gssw_align_many(items, scoring, lanes=lanes, probe=machine,
                                   store_full_matrix=store))
    return results, machine.summary()


class TestGroupAgainstSingles:
    @pytest.mark.parametrize("cap", [striped.GROUP_CAP, 2])
    def test_ssw(self, cap, target_space, monkeypatch):
        monkeypatch.setattr(striped, "GROUP_CAP", cap)
        pairs = _ssw_pairs()
        singles = _ssw_singles(pairs)
        target_space()
        assert _ssw_batched(pairs) == singles

    @pytest.mark.parametrize("cap", [striped.GROUP_CAP, 2])
    @pytest.mark.parametrize("store", [True, False])
    def test_gssw(self, cap, store, monkeypatch):
        monkeypatch.setattr(striped, "GROUP_CAP", cap)
        items = _gssw_items()
        assert _gssw_batched(items, store) == _gssw_singles(items, store)

    def test_groups_follow_segment_length_and_cap(self, monkeypatch):
        monkeypatch.setattr(striped, "GROUP_CAP", 3)
        lengths = [150, 149, 150, 150, 40, 150, 150, 1]
        groups = striped.lockstep_groups(
            lengths, lambda qlen: striped.segment_length(qlen, 8))
        assert list(groups) == [[150, 149, 150], [150], [40], [150, 150], [1]]

    def test_bad_input_raises_the_aligner_error(self):
        with pytest.raises(AlignmentError, match="SIMD lanes"):
            list(ssw_align_many([("ACGT", "ACGT")], lanes=1))
        with pytest.raises(AlignmentError, match="SIMD lanes"):
            list(gssw_align_many([("ACGT", _dag(0, 3, 4))], lanes=0))
        with pytest.raises(AlignmentError, match="empty target"):
            list(ssw_align_many([("ACGT", "ACGT"), ("ACGT", "")]))

    def test_streaming_gssw_matches_in_memory(self, monkeypatch):
        """Chunked inputs feed lock-step groups that straddle chunks."""
        monkeypatch.setattr(striped, "GROUP_CAP", 4)

        def execute():
            kernel = create_kernel("gssw", scale=0.25, seed=0)
            kernel.ensure_prepared()
            machine = TraceMachine()
            return kernel._execute(machine), machine.summary(), kernel.items

        in_memory, memory_summary, items = execute()
        with streaming(chunk_items=7):
            streamed, streamed_summary, chunked = execute()
        assert items.chunk_items >= items.total > chunked.chunk_items == 7
        assert streamed == in_memory
        assert streamed_summary == memory_summary


def _assert_same_trace(engine, scalar):
    np.testing.assert_array_equal(engine.stops, scalar.stops)
    np.testing.assert_array_equal(engine.improved, scalar.improved)
    assert (engine.score, engine.column, engine.cell) \
        == (scalar.score, scalar.column, scalar.cell)


def _engine_traces(aligners, targets, scoring):
    return lockstep([aligner._profile for aligner in aligners],
                    [base_codes(target) for target in targets],
                    [[(len(target), ())] for target in targets],
                    scoring, e_from_previous=False)


class TestLazyFEdges:
    """Inputs whose lazy-F loops take the paths kernel data does not."""

    @pytest.mark.parametrize("lanes", [2, 8, 16])
    def test_every_pass_runs(self, lanes):
        rng = random.Random(lanes)
        pairs = [(_dna(rng, qlen), _dna(rng, 25))
                 for qlen in (3 * lanes, 3 * lanes - 1, 2 * lanes + 1)]
        aligners = [StripedSmithWaterman(query, EXHAUSTING, lanes=lanes)
                    for query, _target in pairs]
        targets = [target for _query, target in pairs]
        limit = lanes * aligners[0].segment_length
        for aligner, target, trace in zip(
                aligners, targets, _engine_traces(aligners, targets,
                                                  EXHAUSTING)):
            scalar = aligner._scan_scalar(target)
            assert (scalar.stops == limit).all()
            _assert_same_trace(trace, scalar)

    @pytest.mark.parametrize("lanes", [2, 8, 16])
    def test_every_pass_runs_end_to_end(self, lanes, target_space):
        rng = random.Random(lanes)
        pairs = [(_dna(rng, 3 * lanes), _dna(rng, 25)) for _ in range(3)]
        singles = _ssw_singles(pairs, EXHAUSTING, lanes, backend="scalar")
        target_space()
        assert _ssw_batched(pairs, EXHAUSTING, lanes) == singles
        # Per column: the sweep's 10*seg + 1 ops, then every pass's lane
        # shift and 4 ops per segment step; one branch per step plus the
        # improved-score branch.
        seg, columns = 3, 3 * 25
        summary = singles[1]
        assert summary.op_counts[OpClass.VECTOR_ALU] \
            == columns * (10 * seg + 1 + lanes + 4 * lanes * seg)
        assert summary.branch_stats.branches == columns * (lanes * seg + 1)
        items = [(query, _dag(lanes, n_nodes=6, max_len=8))
                 for query, _target in pairs]
        fast, fast_summary = _gssw_batched(items, True, EXHAUSTING, lanes)
        slow, slow_summary = _gssw_singles(items, True, EXHAUSTING, lanes,
                                           backend="scalar")
        assert fast == slow
        assert fast_summary.op_counts == slow_summary.op_counts
        assert fast_summary.branch_stats == slow_summary.branch_stats

    #: (lanes, seed): a 2*lanes query and 30-bp target, drawn from
    #: ``random.Random(seed)``, whose lazy-F exits on a pass's last
    #: segment — past the first pass where more than two lanes allow it.
    LAST_SEGMENT_EXITS = [(2, 0), (8, 1), (16, 0)]

    @pytest.mark.parametrize("lanes,seed", LAST_SEGMENT_EXITS)
    def test_exit_on_last_segment(self, lanes, seed, target_space):
        rng = random.Random(seed)
        edge = (_dna(rng, 2 * lanes), _dna(rng, 30))
        # Lock-step partners of the same segment length that exit
        # elsewhere, so the pass drops some alignments and keeps others.
        other = random.Random(seed + 100)
        pairs = [edge] + [(_dna(other, 2 * lanes), _dna(other, 30))
                          for _ in range(4)]
        aligners = [StripedSmithWaterman(query, lanes=lanes)
                    for query, _target in pairs]
        targets = [target for _query, target in pairs]
        seg = aligners[0].segment_length
        scalar = [aligner._scan_scalar(target)
                  for aligner, target in zip(aligners, targets)]
        first_pass = seg if lanes > 2 else 0
        assert any(stop % seg == seg - 1 and stop >= first_pass
                   for stop in scalar[0].stops)
        for trace, reference in zip(
                _engine_traces(aligners, targets, VG_DEFAULT), scalar):
            _assert_same_trace(trace, reference)
        singles = _ssw_singles(pairs, lanes=lanes, backend="scalar")
        target_space()
        assert _ssw_batched(pairs, lanes=lanes) == singles
