"""Batched GBWT record walk vs the scalar reference execute path.

The gbwt kernel's wavefront walk batches queries into lockstep numpy
chunks; it must replay the exact scalar event stream — whole
:class:`MachineSummary` equality, not just totals — and produce the
same work counters, for any chunk size cut of the same query set.
"""

import pytest

import repro.kernels  # noqa: F401 — populate the registry
from repro.kernels.base import KERNEL_REGISTRY
from repro.uarch.machine import TraceMachine


def _execute(kernel_cls, backend, chunk=None, scattered=False):
    kernel = kernel_cls(scale=0.25, seed=0, backend=backend)
    if chunk is not None:
        kernel.CHUNK = chunk
    kernel.ensure_prepared()
    if scattered:
        # The layout ablation's node-id order, set after prepare.
        kernel.record_offset = {
            node_id: node_id * 347 for node_id in kernel.record_offset
        }
    machine = TraceMachine()
    result = kernel._execute(machine)
    return result, machine.summary()


@pytest.fixture(scope="module")
def gbwt_cls(_isolated_dataset_store):
    return KERNEL_REGISTRY["gbwt"]


class TestGbwtDifferential:
    def test_batched_matches_scalar_exactly(self, gbwt_cls):
        fast, fast_summary = _execute(gbwt_cls, backend="vectorized")
        slow, slow_summary = _execute(gbwt_cls, backend="scalar")
        assert fast.work == slow.work
        assert fast.inputs_processed == slow.inputs_processed
        assert fast_summary == slow_summary

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_chunk_size_is_invisible(self, gbwt_cls, chunk):
        """Wavefront width is a throughput knob, not a semantic one."""
        reference, reference_summary = _execute(gbwt_cls, backend="vectorized")
        cut, cut_summary = _execute(gbwt_cls, backend="vectorized", chunk=chunk)
        assert cut.work == reference.work
        assert cut_summary == reference_summary

    def test_backends_agree_under_scattered_layout(self, gbwt_cls):
        """``record_offset`` is the one layout table both backends read,
        so a layout set after prepare reaches the batched path too."""
        fast, fast_summary = _execute(gbwt_cls, backend="vectorized",
                                      scattered=True)
        slow, slow_summary = _execute(gbwt_cls, backend="scalar",
                                      scattered=True)
        assert fast.work == slow.work
        assert fast_summary == slow_summary
        _default, default_summary = _execute(gbwt_cls, backend="vectorized")
        assert fast_summary != default_summary
