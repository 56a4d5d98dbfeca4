"""The suite engine — our analog of the paper's ``mainRun.py``.

Three layers (see README "Harness architecture"):

* **studies** (:mod:`repro.harness.studies`) — pluggable characterization
  passes (``timing``/``topdown``/``cache``/``instmix``/``validate``/
  ``gpu``) in ``STUDY_REGISTRY``;
* **executor** (:mod:`repro.harness.executor`) — compiles an
  :class:`~repro.harness.executor.ExecutionPlan` and dispatches its jobs
  (``execute_jobs``) in-process or over a process pool with per-job
  timeout and failure isolation;
* **store** (:mod:`repro.harness.store`) — a content-addressed report
  cache, so repeated runs at identical parameters execute nothing.

This module holds the data model (:class:`KernelReport`), the single-job
engine (:func:`run_kernel_studies`) and the versioned JSON serialization;
:func:`run_suite` is the high-level entry the CLI, benches and tests use.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import repro
from repro.errors import KernelError
from repro.harness.studies import create_study
from repro.kernels.base import create_kernel, kernel_names
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.attribution import PhaseAttributor
from repro.obs.spans import NULL_TRACER
from repro.uarch.cache import MACHINE_B, CacheConfig
from repro.uarch.events import NULL_PROBE
from repro.uarch.machine import TraceMachine

#: JSON schema version written by :func:`save_reports` and the result
#: store; bump when :class:`KernelReport` changes incompatibly.
#: v3: observability — ``spans``, ``metrics`` and ``phases`` fields.
#: v4: the backend plane — reports carry the execution ``backend`` and
#: it joins the cache key, so pre-backend cached reports invalidate.
SCHEMA_VERSION = 4


@dataclass
class KernelReport:
    """Everything one kernel produced across the requested studies.

    Picklable (it crosses process boundaries in the parallel executor)
    and JSON-round-trippable via :func:`save_reports`/:func:`load_reports`.
    """

    kernel: str
    wall_seconds: float = 0.0
    inputs_processed: int = 0
    work: dict[str, float] = field(default_factory=dict)
    topdown: dict[str, float] = field(default_factory=dict)
    ipc: float = 0.0
    mpki: dict[str, float] = field(default_factory=dict)
    instruction_mix: dict[str, float] = field(default_factory=dict)
    branch_misprediction_rate: float = 0.0
    instructions: int = 0
    validated: bool = False
    #: Table 7 SIMT counters collected by the ``gpu`` study.
    gpu: dict[str, float] = field(default_factory=dict)
    #: Structured failure record ("ExcType: message") when the kernel
    #: raised, timed out, or its worker died; ``None`` on success.
    error: str | None = None
    # Run metadata (reproducibility of cached/serialized reports).
    scale: float = 1.0
    seed: int = 0
    machine: str = ""
    #: Named dataset scenario the kernel ran on (``repro data`` /
    #: ``repro run --scenario``); reports predating scenarios read back
    #: as "default", which is what they ran on.
    scenario: str = "default"
    #: Execution backend the kernel ran on (``scalar`` / ``vectorized``
    #: / ``gpu``); ``""`` only in reports predating the backend plane.
    backend: str = ""
    #: Span records collected during the run (see repro.obs.spans for
    #: the record schema); populated whenever a real tracer is
    #: installed, including spans shipped back from worker processes.
    spans: list = field(default_factory=list)
    #: Metrics registry export for the run (repro.obs.metrics schema);
    #: the executor folds its queue-wait / job-lifecycle series in here.
    metrics: dict = field(default_factory=dict)
    #: Per-phase μarch attribution keyed by span name (the VTune-regions
    #: analog): instructions / ipc / topdown / mpki / instruction_mix
    #: per phase, exclusive, summing to the whole-run counters.
    phases: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelReport":
        """Build a report from a JSON mapping, ignoring unknown fields
        (forward compatibility with reports written by newer code)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def run_kernel_studies(
    name: str,
    studies: tuple[str, ...] = ("timing",),
    scale: float = 1.0,
    seed: int = 0,
    cache_config: CacheConfig = MACHINE_B,
    scenario: str = "default",
    backend: str | None = None,
) -> KernelReport:
    """Run one kernel under the requested studies (one execution).

    The engine is study-agnostic: it instantiates each study from
    ``STUDY_REGISTRY``, executes the kernel at most once (traced iff any
    study requires the event stream), records the generic run metadata,
    and lets each study's ``collect`` hook fill its report fields.

    Observability rides along for free when enabled: with a real span
    tracer installed (``repro trace`` / ``--trace-out`` / the executor's
    workers), the kernel's spans land in ``report.spans``; with a
    :class:`TraceMachine` additionally in play, a
    :class:`~repro.obs.attribution.PhaseAttributor` splits its counters
    across span boundaries into ``report.phases``.  Metrics emitted
    during the run are captured into ``report.metrics`` and folded into
    the ambient registry.
    """
    plugins = [create_study(study) for study in studies]
    kernel = create_kernel(name, scale=scale, seed=seed, scenario=scenario,
                           backend=backend)
    report = KernelReport(
        kernel=name, scale=scale, seed=seed, machine=cache_config.name,
        scenario=scenario, backend=kernel.backend,
    )

    machine = (
        TraceMachine(cache_config)
        if any(plugin.requires_trace for plugin in plugins)
        else None
    )
    tracer = trace.current_tracer()
    traced = tracer is not NULL_TRACER
    mark = tracer.mark() if traced else 0
    attributor = None
    if traced and machine is not None:
        attributor = PhaseAttributor(machine)
        tracer.listeners.append(attributor)

    run_registry = obs_metrics.MetricsRegistry()
    try:
        with obs_metrics.use(run_registry):
            result = summary = None
            if machine is not None or any(
                plugin.requires_run for plugin in plugins
            ):
                result = kernel.run(
                    probe=machine if machine is not None else NULL_PROBE
                )
                report.inputs_processed = result.inputs_processed
                report.work = dict(result.work)
    finally:
        if attributor is not None:
            attributor.finish()
            tracer.listeners.remove(attributor)
    if machine is not None:
        summary = machine.summary()
        report.instructions = summary.instructions
        report.branch_misprediction_rate = summary.branch_stats.misprediction_rate
    if attributor is not None:
        report.phases = attributor.report(cache_config)
    if traced:
        report.spans = tracer.records_since(mark)
    report.metrics = run_registry.as_dict()
    obs_metrics.current_registry().merge_dict(report.metrics)

    for plugin in plugins:
        plugin.collect(kernel, result, summary, report)
    return report


def run_suite(
    kernels: tuple[str, ...] | None = None,
    studies: tuple[str, ...] = ("timing",),
    scale: float = 1.0,
    seed: int = 0,
    cache_config: CacheConfig = MACHINE_B,
    jobs: int = 1,
    timeout: float | None = None,
    store: "object | None" = None,
    scenario: str = "default",
    stream: bool = False,
    backend: str | None = None,
) -> dict[str, KernelReport]:
    """Run the whole suite (or a subset) under the requested studies.

    * ``jobs`` — worker processes; 1 (the default) runs in-process for
      determinism, >1 dispatches over the parallel executor with
      per-kernel failure isolation.
    * ``timeout`` — per-kernel wall-clock limit in seconds (enforced when
      ``jobs > 1``; a timed-out kernel's report carries an ``error``).
    * ``store`` — serve cache hits from (and write misses to) this
      :class:`repro.harness.store.ResultStore`; ``ResultStore()`` is the
      shared one under ``$REPRO_CACHE_DIR`` or
      ``benchmarks/results/cache/``.  ``None`` (the default) executes
      every kernel.
    * ``scenario`` — named dataset scenario from
      :data:`repro.data.SCENARIO_REGISTRY` every kernel prepares on.
    * ``stream`` — bounded-memory mode: the
      :class:`~repro.data.streaming.ChunkedSeries` kernel inputs hold
      one small chunk at a time instead of the whole set; reports are
      bit-identical either way.
    * ``backend`` — execution backend for every kernel (``None``: each
      kernel's default); must be supported by all requested kernels.
    """
    from repro.harness.executor import compile_plan, execute_jobs

    names = kernels if kernels is not None else tuple(kernel_names())
    plan = compile_plan(
        names, studies=studies, scale=scale, seed=seed,
        cache_config=cache_config, scenario=scenario, stream=stream,
        backend=backend,
    )
    outcomes = execute_jobs(plan.jobs, workers=jobs, timeout=timeout,
                            store=store)
    return {outcome.job.kernel: outcome.report for outcome in outcomes}


def _git_sha() -> str:
    """Short git revision of the working tree, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_metadata() -> dict[str, str]:
    """Provenance recorded alongside serialized reports."""
    return {"package_version": repro.__version__, "git_sha": _git_sha()}


def save_reports(
    reports: dict[str, KernelReport],
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Serialize suite reports to versioned JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": {**run_metadata(), **(metadata or {})},
        "reports": {name: asdict(report) for name, report in reports.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_reports(path: str | Path) -> dict[str, KernelReport]:
    """Load reports saved by :func:`save_reports`.

    Checks ``schema_version`` (rejecting files from a newer schema),
    ignores unknown per-report fields, and still reads the legacy
    unversioned ``{kernel: fields}`` layout.
    """
    payload = json.loads(Path(path).read_text())
    if "schema_version" in payload:
        version = payload["schema_version"]
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise KernelError(
                f"unsupported report schema {version!r} (this build reads "
                f"<= {SCHEMA_VERSION})"
            )
        records = payload.get("reports", {})
    else:  # legacy schema 1: a bare name -> fields mapping
        records = payload
    return {
        name: KernelReport.from_dict(record) for name, record in records.items()
    }
