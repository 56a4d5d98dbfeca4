"""TSU kernel: the GPU wavefront aligner (from PGGB/MC via wfmash).

Inputs (Table 3: "10K long seqs"): sequence pairs at 1% error generated
like the paper's TSU script.  Runs on the SIMT simulator; the kernel's
"work" carries the Table 7 / Figure 9 profiling metrics.
"""

from __future__ import annotations

from repro.align.myers import edit_distance
from repro.data import derivation, tsu_pairs, tsu_pairs_range
from repro.data.streaming import ChunkedSeries
from repro.errors import KernelError
from repro.gpu.tsu import tsu_align_batch
from repro.kernels.base import GPU, Kernel, KernelResult, register
from repro.uarch.events import MachineProbe


def _tsu_pair_count(spec) -> int:
    return max(4, int(12 * spec.scale))


@derivation("tsu_pairs", needs_corpus=False)
def _derive_tsu_pairs(data, spec, pair_length=2000, start=0, stop=None):
    """The paper's TSU generator: synthetic pairs ``start..stop`` (default
    all) at the scenario's error rate, independent of the shared corpus.
    Each pair has its own RNG substream, so any range is a slice of the
    whole set built without the rest."""
    if stop is None:
        stop = _tsu_pair_count(spec)
    return tsu_pairs_range(start, stop, pair_length,
                           error_rate=spec.tsu_error_rate, seed=spec.seed)


@register
class TSUKernel(Kernel):
    """Batch-align sequence pairs with the simulated GPU WFA."""

    name = "tsu"
    parent_tool = "pggb"
    input_type = "sequence pairs"
    #: GPU-native: the kernel *is* the SIMT device model, so there is
    #: no CPU backend to select.
    SUPPORTED_BACKENDS = (GPU,)
    DEFAULT_BACKEND = GPU

    #: Scaled stand-in for the paper's 10 kbp pairs.
    pair_length = 2000
    #: Modelled batch replication: the paper's TSU batches hold tens of
    #: thousands of pairs; replaying each simulated pair's trace this
    #: many times fills the GPU so the Table 7 utilization counters (the
    #: ``gpu`` study) reflect a saturated device, not a toy batch.
    replicate = 500

    def prepare(self) -> None:
        self.pairs = ChunkedSeries(
            self.spec, "tsu_pairs", _tsu_pair_count(self.spec),
            params={"pair_length": self.pair_length},
        )
        if not self.pairs:
            raise KernelError("no TSU pairs generated")

    def _execute(self, probe: MachineProbe) -> KernelResult:
        result = tsu_align_batch(self.pairs, replicate=self.replicate)
        report = result.report
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=len(self.pairs),
            work={
                "gpu_time_ms": report.time_ms,
                "theoretical_occupancy": report.theoretical_occupancy,
                "achieved_occupancy": report.achieved_occupancy,
                "warp_utilization": report.warp_utilization,
                "memory_bw_utilization": report.memory_bw_utilization,
                "single_lane_extend_fraction": result.single_lane_extend_fraction,
                "distance_total": float(sum(result.distances)),
            },
        )

    def validate(self) -> None:
        """GPU distances must equal exact edit distances (short sample)."""
        short = tsu_pairs(2, 300, error_rate=0.02, seed=self.seed)
        result = tsu_align_batch(short)
        for (a, b), got in zip(short, result.distances):
            want = edit_distance(a, b)
            if got != want:
                raise KernelError(f"TSU distance mismatch: {got} != {want}")
