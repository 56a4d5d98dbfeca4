"""Thread-scaling model (Figure 5).

We run on one core (CPython), so scaling is *modelled*, not measured —
but from the same causes the paper identifies, with per-tool parameters
taken from our instrumented single-thread runs where possible:

* mapping tools parallelize over reads: near-linear to the 28 physical
  cores of Machine A, then a hyperthreading knee (shared-core yield);
* Minigraph-cr has no intra-query parallelism (``batch_limit=1``);
* seqwish overlaps transclosure with serialized graph emission, so
  threads stop helping once emission becomes the bottleneck;
* odgi layout = serial path-index build + Hogwild updates that are
  memory-bandwidth-limited and barrier-synchronized per iteration.

The machine model is Machine A (2 sockets x 14 cores x 2 threads).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

#: Figure 5's thread counts.
FIGURE5_THREADS = (4, 14, 28, 56)


@dataclass(frozen=True)
class MachineModel:
    """Socket/core/SMT topology of the scaling machine."""

    physical_cores: int = 28
    smt_per_core: int = 2
    #: Marginal throughput of a hyperthread sharing a busy core.
    smt_yield: float = 0.25
    #: Usable memory-bandwidth multiple of one core's demand.
    bandwidth_cores: float = 12.0

    def effective_cores(self, threads: int) -> float:
        """Compute-throughput in units of one core."""
        physical = min(threads, self.physical_cores)
        hyper = max(0, min(threads - self.physical_cores,
                           self.physical_cores * (self.smt_per_core - 1)))
        return physical + hyper * self.smt_yield


MACHINE_A_TOPOLOGY = MachineModel()


@dataclass(frozen=True)
class WorkloadModel:
    """Scaling-relevant structure of one workload.

    Attributes:
        name: Tool label.
        serial_fraction: Fraction of single-thread time that cannot
            parallelize (setup, path-index build, final output).
        batch_limit: Maximum exploitable parallelism (1 = sequential).
        memory_bound_fraction: Fraction of parallel work that is
            bandwidth-limited (scales only to ``bandwidth_cores``).
        pipeline_serial_fraction: Work serialized behind a pipeline
            stage that cannot be parallelized (seqwish's graph emission):
            parallel time cannot drop below this fraction.
        barrier_imbalance: Per-iteration barrier cost factor per thread
            (PGSGD's 30 iteration barriers): adds
            ``barrier_imbalance * log2(threads)`` fractional overhead.
    """

    name: str
    serial_fraction: float = 0.02
    batch_limit: int | None = None
    memory_bound_fraction: float = 0.0
    pipeline_serial_fraction: float = 0.0
    barrier_imbalance: float = 0.0

    def time_at(self, threads: int, machine: MachineModel = MACHINE_A_TOPOLOGY) -> float:
        """Normalized runtime at *threads* (single-thread time = 1.0)."""
        if threads < 1:
            raise SimulationError("need at least one thread")
        usable = threads if self.batch_limit is None else min(threads, self.batch_limit)
        cores = machine.effective_cores(usable)
        parallel = 1.0 - self.serial_fraction

        compute_part = parallel * (1.0 - self.memory_bound_fraction)
        memory_part = parallel * self.memory_bound_fraction
        compute_time = compute_part / cores
        memory_time = memory_part / min(cores, machine.bandwidth_cores)
        parallel_time = compute_time + memory_time

        if self.pipeline_serial_fraction > 0:
            parallel_time = max(parallel_time, self.pipeline_serial_fraction)
        if self.barrier_imbalance > 0 and usable > 1:
            import math

            parallel_time *= 1.0 + self.barrier_imbalance * math.log2(usable)
        return self.serial_fraction + parallel_time

    def speedup_curve(
        self,
        threads: tuple[int, ...] = FIGURE5_THREADS,
        baseline_threads: int = 4,
        machine: MachineModel = MACHINE_A_TOPOLOGY,
    ) -> dict[int, float]:
        """Speedups relative to *baseline_threads* (Figure 5's y-axis)."""
        base = self.time_at(baseline_threads, machine)
        return {t: base / self.time_at(t, machine) for t in threads}


#: Figure 5's workloads with parameters from our measured stage structure
#: (serial fractions are overridable from instrumented runs).
FIGURE5_WORKLOADS: dict[str, WorkloadModel] = {
    "vg_map": WorkloadModel("vg_map", serial_fraction=0.01),
    "giraffe": WorkloadModel("giraffe", serial_fraction=0.02),
    "graphaligner": WorkloadModel("graphaligner", serial_fraction=0.01),
    "minigraph-lr": WorkloadModel("minigraph-lr", serial_fraction=0.01),
    "minigraph-cr": WorkloadModel("minigraph-cr", batch_limit=1),
    "seqwish": WorkloadModel(
        "seqwish",
        serial_fraction=0.10,             # setup + final GFA write
        pipeline_serial_fraction=0.22,    # graph-emission pipeline stage
    ),
    "odgi-layout": WorkloadModel(
        "odgi-layout",
        serial_fraction=0.08,             # sequential path-index build
        memory_bound_fraction=0.6,        # random layout-array access
        barrier_imbalance=0.02,           # 30 iteration barriers
    ),
}


def figure5_table(
    workloads: dict[str, WorkloadModel] | None = None,
) -> dict[str, dict[int, float]]:
    """Speedup-vs-4-threads curves for every Figure 5 workload."""
    workloads = workloads or FIGURE5_WORKLOADS
    return {name: model.speedup_curve() for name, model in workloads.items()}
