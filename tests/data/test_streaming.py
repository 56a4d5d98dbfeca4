"""Streaming execution mode: chunked views must be invisible.

The contract of ``repro run --stream`` is *bounded memory, identical
results*: each kernel-input derivation is range-parameterized over
per-item RNG substreams, so a :class:`ChunkedSeries` of any chunk size
enumerates exactly the whole-set derivation (the in-memory run is the
one-chunk case), and a streaming kernel run produces a bit-identical
:class:`~repro.harness.runner.KernelReport` (modulo wall time, spans,
and the store-traffic observability metrics streaming legitimately
adds).
"""

import contextlib
import dataclasses
import gc
import weakref
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ArtifactStore,
    DatasetSpec,
    default_store,
    gbwt_queries,
    gbwt_queries_range,
    tsu_pairs,
    tsu_pairs_range,
    use_store,
)
from repro.data.streaming import (
    DEFAULT_CHUNK_ITEMS,
    ChunkedSeries,
    active_chunk_items,
    streaming,
)
from repro.harness.executor import Job, compile_plan
from repro.harness.runner import run_kernel_studies
from repro.harness.store import job_key
from repro.index.minimizer import graph_minimizer_index
from repro.kernels import create_kernel
from repro.uarch.events import NULL_PROBE


class TestRangeGenerators:
    @given(
        n=st.integers(min_value=0, max_value=24),
        start=st.integers(min_value=0, max_value=24),
        stop=st.integers(min_value=0, max_value=24),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_tsu_range_is_a_slice_of_the_full_set(self, n, start, stop, seed):
        full = tsu_pairs(n, 60, seed=seed)
        lo, hi = min(start, n), min(max(start, stop), n)
        assert tsu_pairs_range(lo, hi, 60, seed=seed) == full[lo:hi]

    def test_gbwt_range_is_a_slice_of_the_full_set(self,
                                                   small_graph_pangenome):
        graph = small_graph_pangenome.graph
        full = gbwt_queries(graph, 30, seed=1)
        for lo, hi in ((0, 30), (0, 7), (7, 19), (29, 30), (12, 12)):
            assert gbwt_queries_range(graph, lo, hi, seed=1) == full[lo:hi]


class TestStreamingContext:
    def test_inactive_by_default(self):
        assert active_chunk_items() is None

    def test_scoped_and_nested(self):
        with streaming(chunk_items=5) as outer:
            assert active_chunk_items() == outer == 5
            with streaming(chunk_items=2):
                assert active_chunk_items() == 2
            assert active_chunk_items() == 5
        assert active_chunk_items() is None

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with streaming() as chunk_items:
                assert chunk_items == DEFAULT_CHUNK_ITEMS
                raise RuntimeError("boom")
        assert active_chunk_items() is None


class TestChunkedSeries:
    @pytest.fixture()
    def series(self):
        spec = DatasetSpec(scale=0.25, seed=0)
        full = default_store().derived(spec, "tsu_pairs", pair_length=80)
        with streaming(chunk_items=3):
            chunked = ChunkedSeries(spec, "tsu_pairs", len(full),
                                    params={"pair_length": 80})
        return full, chunked

    def test_enumerates_the_monolithic_derivation(self, series):
        full, chunked = series
        assert list(chunked) == full
        assert list(chunked) == full  # re-iterable, not a generator
        assert len(chunked) == len(full)
        assert bool(chunked) is bool(full)

    def test_random_access(self, series):
        full, chunked = series
        for index in range(len(full)):
            assert chunked[index] == full[index]
        assert chunked[-1] == full[-1]
        with pytest.raises(IndexError):
            chunked[len(full)]

    def test_is_a_sequence(self, series):
        """``random.sample`` in the validators needs a real Sequence."""
        _full, chunked = series
        assert isinstance(chunked, Sequence)
        assert chunked.index(chunked[2]) == 2

    def test_one_chunk_outside_a_streaming_scope(self, series):
        full, _chunked = series
        spec = DatasetSpec(scale=0.25, seed=0)
        whole = ChunkedSeries(spec, "tsu_pairs", len(full),
                              params={"pair_length": 80})
        assert whole.chunk_items == len(full)
        assert list(whole) == full
        with streaming(chunk_items=3):
            assert ChunkedSeries(spec, "tsu_pairs", len(full)).chunk_items == 3

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            with streaming(chunk_items=0):
                pass
        assert active_chunk_items() is None

    def test_equal_by_value_like_a_list(self, series):
        """A series stands in for the list its kernel used to hold, so
        ``==``/``!=`` compare items, whatever the chunk size."""
        full, chunked = series
        spec = DatasetSpec(scale=0.25, seed=0)
        whole = ChunkedSeries(spec, "tsu_pairs", len(full),
                              params={"pair_length": 80})
        assert chunked == full and full == chunked
        assert chunked == whole and not chunked != whole
        assert chunked != full[:-1]
        assert chunked != full[::-1]
        other = ChunkedSeries(spec, "tsu_pairs", len(full),
                              params={"pair_length": 81})
        assert chunked != other
        assert chunked != tuple(full)  # a list is not equal to a tuple either


def _report_fingerprint(report):
    """Everything deterministic in a report: drop wall times, spans, and
    the store-traffic metrics that streaming legitimately changes."""
    payload = dataclasses.asdict(report)
    for volatile in ("wall_seconds", "spans", "metrics"):
        payload.pop(volatile, None)
    return payload


class TestStreamingReports:
    @pytest.mark.parametrize("kernel", ["tsu", "gbwt", "gssw"])
    def test_streaming_report_identical_to_in_memory(self, kernel):
        studies = ("timing", "topdown", "cache")
        baseline = run_kernel_studies(kernel, studies=studies, scale=0.25)
        with streaming(chunk_items=7):
            streamed = run_kernel_studies(kernel, studies=studies, scale=0.25)
        assert _report_fingerprint(streamed) == _report_fingerprint(baseline)

    def test_non_streaming_kernels_unaffected(self):
        baseline = run_kernel_studies("tc", studies=("timing",), scale=0.25)
        with streaming():
            streamed = run_kernel_studies("tc", studies=("timing",),
                                          scale=0.25)
        assert _report_fingerprint(streamed) == _report_fingerprint(baseline)


class CountingStore(ArtifactStore):
    """An artifact store that records every public fetch it serves."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.calls: list[str] = []

    def fetch(self, spec):
        self.calls.append("corpus")
        return super().fetch(spec)

    def fetch_derived(self, spec, name, **params):
        self.calls.append(name)
        return super().fetch_derived(spec, name, **params)


class TestOneChunkPrepare:
    @pytest.mark.parametrize("kernel,calls", [
        ("tsu", ["tsu_pairs"]),
        # gbwt's prepare also lays out its records from the corpus graph
        # and resolves its index as a derivation.
        ("gbwt", ["corpus", "gbwt_index", "gbwt_queries"]),
        ("gssw", ["gssw_inputs"]),
    ])
    def test_warm_prepare_fetches_its_input_once(self, tmp_path, kernel,
                                                 calls):
        store = CountingStore(tmp_path)
        with use_store(store):
            create_kernel(kernel, scale=0.05).ensure_prepared()  # cold
            warm = create_kernel(kernel, scale=0.05)
            store.calls.clear()
            warm.ensure_prepared()
            assert sorted(store.calls) == calls
            store.calls.clear()
            warm._execute(NULL_PROBE)
            assert store.calls == []

    @pytest.mark.parametrize("chunk_items", [7, None])
    def test_cached_index_does_not_pin_its_corpus(
            self, tmp_path, chunk_items):
        """gssw's cached index lives exactly as long as its corpus graph,
        streamed or in one chunk."""
        scope = (streaming(chunk_items=chunk_items) if chunk_items
                 else contextlib.nullcontext())
        with use_store(ArtifactStore(tmp_path)) as store:
            kernel = create_kernel("gssw", scale=0.05, seed=0)
            with scope:
                kernel.ensure_prepared()
            graph = store.corpus(kernel.spec).graph
            graph_ref = weakref.ref(graph)
            index_ref = weakref.ref(graph_minimizer_index(graph, k=15, w=10))
            del graph
            gc.collect()
            assert index_ref() is not None  # cached while the store holds it
            store.evict_memory()
            gc.collect()
            assert graph_ref() is None
            assert index_ref() is None


class TestStreamingValidate:
    @pytest.mark.parametrize("kernel", ["tsu", "gbwt", "gssw"])
    def test_timing_and_validate_on_chunked_inputs(self, kernel):
        """The validators sample the chunked inputs directly."""
        with streaming(chunk_items=7):
            report = run_kernel_studies(kernel, studies=("timing", "validate"),
                                        scale=0.05)
        assert report.validated


class TestExecutorWiring:
    def test_compile_plan_threads_stream_flag(self):
        plan = compile_plan(("tsu",), studies=("timing",), stream=True)
        assert all(job.stream for job in plan.jobs)
        assert not any(job.stream
                       for job in compile_plan(("tsu",),
                                               studies=("timing",)).jobs)

    def test_stream_flag_shares_the_result_cache(self):
        """Streaming reports are result-identical, so both modes must
        map to the same result-store key (like ``trace``, ``stream`` is
        how-to-run, not what-to-run)."""
        job = Job(kernel="tsu", studies=("timing",), scale=0.25)
        streamed = Job(kernel="tsu", studies=("timing",), scale=0.25,
                       stream=True)
        assert job_key(job) == job_key(streamed)
