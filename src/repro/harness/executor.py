"""The execution layer: plan compilation and a failure-isolated pool.

``compile_plan`` turns a suite request into an :class:`ExecutionPlan` of
per-kernel :class:`Job`\\ s (validated up front, so configuration errors
raise before anything runs).  ``execute_jobs`` dispatches a batch of
jobs (``run_suite`` and the sweep driver both go through it):

* serving cache hits from a :class:`~repro.harness.store.ResultStore`
  when one is passed (``store=None`` means no cache);
* in-process when ``workers == 1`` and no timeout is set
  (deterministic, no pickling);
* otherwise over a pool of worker processes, with per-job timeout and
  failure isolation — a kernel that raises, hangs past its deadline, or
  kills its worker yields a report whose ``error`` field is set, and the
  rest of the batch keeps going.

The pool is observable end to end: every worker runs under its own span
tracer and ships its spans back inside the report; each span is *also*
spooled to disk as it finishes, so a job that times out or crashes its
worker still yields the spans it completed.  The parent records job
lifecycle (queue-wait and run intervals) into the current tracer and
metrics registry, and every report — including failures, which now carry
their elapsed wall time — gets the executor's queue-wait/wall series
merged into ``report.metrics``.

The pool is managed directly over :mod:`multiprocessing` rather than
``concurrent.futures.ProcessPoolExecutor``: a hung worker must be
*terminated* on timeout (the executor API can cancel only jobs that have
not started, and its atexit hook would block interpreter shutdown on the
stuck process).
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.data import ensure_corpus, scenario_spec
from repro.data.streaming import streaming
from repro.errors import KernelError
from repro.harness.runner import KernelReport, run_kernel_studies
from repro.harness.studies import create_study
from repro.harness.store import ResultStore
from repro.kernels.base import KERNEL_REGISTRY, resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.context import TraceContext, annotate_records
from repro.obs.spans import NULL_TRACER, Tracer
from repro.uarch.cache import MACHINE_B, CacheConfig


@dataclass(frozen=True)
class Job:
    """One schedulable unit: a kernel under a set of studies.

    ``trace`` is request identity, not configuration: it rides into the
    worker so child-process spans stitch into the submitting request's
    trace, and it is deliberately excluded from
    :func:`~repro.harness.store.job_key` — the same work submitted by
    two requests still coalesces and cache-hits.
    """

    kernel: str
    studies: tuple[str, ...]
    scale: float = 1.0
    seed: int = 0
    cache_config: CacheConfig = MACHINE_B
    scenario: str = "default"
    #: Execution backend.  ``""`` means the kernel's default;
    #: ``compile_plan`` always stores the *resolved* name, and
    #: :func:`~repro.harness.store.job_key` resolves before hashing, so
    #: an explicit default and an implicit one share a cache entry.
    backend: str = ""
    trace: "TraceContext | None" = None
    #: Streaming mode holds derived inputs as bounded chunked views
    #: instead of monolithic in-memory lists.  Reports are bit-identical
    #: either way (chunk generators share the monolithic RNG
    #: substreams), so — like ``trace`` — it is excluded from
    #: :func:`~repro.harness.store.job_key` and both modes share cache
    #: entries.
    stream: bool = False


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, ordered set of jobs."""

    jobs: tuple[Job, ...]

    def __len__(self) -> int:
        return len(self.jobs)


def validate_names(kernels: tuple[str, ...],
                   studies: tuple[str, ...]) -> None:
    """Raise :class:`KernelError` on unknown kernel or study names."""
    for study in studies:
        create_study(study)  # raises KernelError on unknown studies
    for name in kernels:
        if name not in KERNEL_REGISTRY:
            known = ", ".join(sorted(KERNEL_REGISTRY))
            raise KernelError(f"unknown kernel {name!r}; known: {known}")


def compile_plan(
    kernels: tuple[str, ...],
    studies: tuple[str, ...] = ("timing",),
    scale: float = 1.0,
    seed: int = 0,
    cache_config: CacheConfig = MACHINE_B,
    scenario: str = "default",
    stream: bool = False,
    backend: str | None = None,
) -> ExecutionPlan:
    """Compile one job per kernel, validating names before any runs.

    *backend* of ``None`` resolves to each kernel's default; an explicit
    backend must be supported by every requested kernel (a clear
    :class:`KernelError` otherwise), so a mixed-capability suite request
    fails at compile time, not mid-run.
    """
    validate_names(tuple(kernels), tuple(studies))
    scenario_spec(scenario, scale=scale, seed=seed)  # unknown scenario raises
    return ExecutionPlan(
        jobs=tuple(
            Job(
                kernel=name,
                studies=tuple(studies),
                scale=scale,
                seed=seed,
                cache_config=cache_config,
                scenario=scenario,
                backend=resolve_backend(name, backend),
                stream=stream,
            )
            for name in kernels
        )
    )


def _failure_report(job: Job, error: str) -> KernelReport:
    return KernelReport(
        kernel=job.kernel,
        error=error,
        scale=job.scale,
        seed=job.seed,
        machine=job.cache_config.name,
        scenario=job.scenario,
        backend=job.backend,
    )


def _execute_job(job: Job) -> KernelReport:
    """Run one job, catching kernel failures into the report (which
    still carries the elapsed wall time up to the failure)."""
    started = time.monotonic()
    try:
        with streaming() if job.stream else nullcontext():
            report = run_kernel_studies(
                job.kernel,
                studies=job.studies,
                scale=job.scale,
                seed=job.seed,
                cache_config=job.cache_config,
                scenario=job.scenario,
                backend=job.backend or None,
            )
    except Exception as error:  # noqa: BLE001 — isolate per-kernel failures
        report = _failure_report(job, f"{type(error).__name__}: {error}")
        report.wall_seconds = time.monotonic() - started
        return report
    if job.trace is not None and report.spans:
        annotate_records(report.spans, job.trace)
    return report


#: Per-worker span spool cap (bytes).
SPOOL_MAX_BYTES = 16 * 1024 * 1024


def _spool_writer(path: Path):
    """An ``on_finish`` hook appending each record as one JSON line.

    Opened per record on purpose: the worker may be terminated at any
    moment, and a line-buffered append is the crash-safe spool the
    parent reads partial spans back from.

    The spool is bounded by :data:`SPOOL_MAX_BYTES`: a pathological run
    emitting millions of spans cannot fill the disk.
    Records past the cap are dropped from the spool only — they stay in
    the tracer's in-memory list and still ship back with a successful
    report — and counted in the worker's registry as
    ``executor.spool_dropped_spans``.
    """
    written = 0

    def on_finish(record: dict) -> None:
        nonlocal written
        line = json.dumps(record) + "\n"
        if written + len(line) > SPOOL_MAX_BYTES:
            obs_metrics.counter("executor.spool_dropped_spans").inc()
            return
        written += len(line)
        with path.open("a") as spool:
            spool.write(line)

    return on_finish


def _read_spool(path: Path) -> list[dict]:
    """Recover span records from a worker's spool file (tolerating a
    torn final line from a terminated worker)."""
    try:
        text = path.read_text()
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue  # torn write at termination
    return records


def _job_worker(job: Job, conn, spool_path: str) -> None:
    """Process entry point: run the job under its own tracer and
    metrics registry and ship the report back.

    Every finished span is also spooled to *spool_path* so the parent
    can recover partial spans when this process is terminated (timeout)
    or dies before reporting.
    """
    tracer = Tracer(on_finish=_spool_writer(Path(spool_path)),
                    context=job.trace)
    registry = obs_metrics.MetricsRegistry()
    try:
        with trace.use(tracer), obs_metrics.use(registry):
            report = _execute_job(job)
        # Failure reports from _execute_job bypass run_kernel_studies'
        # span/metric capture; attach what the worker did record.
        if not report.spans:
            report.spans = tracer.records()
        if not report.metrics:
            report.metrics = registry.as_dict()
        conn.send(report)
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (kernels registered at runtime stay visible in the
    children); fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class _Running:
    index: int
    job: Job
    process: multiprocessing.Process
    deadline: float | None
    started: float  # monotonic launch time (elapsed-wall accounting)
    started_pc: float  # perf_counter launch time (tracer timebase)
    queue_wait: float  # seconds the job sat queued before launch
    spool_path: Path


def _record_job(entry: _Running, report: KernelReport, elapsed: float) -> None:
    """Fold job-lifecycle observability into *report* and the parent's
    ambient tracer/metrics: queue-wait and wall gauges, an outcome
    counter, and executor spans when a real tracer is installed."""
    outcome = "ok" if report.error is None else "error"
    lifecycle = obs_metrics.MetricsRegistry()
    lifecycle.counter(
        "executor.jobs", kernel=entry.job.kernel, outcome=outcome
    ).inc()
    lifecycle.gauge(
        "executor.queue_wait_seconds", kernel=entry.job.kernel
    ).set(entry.queue_wait)
    lifecycle.gauge(
        "executor.wall_seconds", kernel=entry.job.kernel
    ).set(elapsed)
    lifecycle.histogram("executor.queue_wait_seconds").observe(entry.queue_wait)
    exported = lifecycle.as_dict()
    report.metrics = (
        obs_metrics.merge(report.metrics, exported)
        if report.metrics else exported
    )
    obs_metrics.current_registry().merge_dict(exported)

    tracer = trace.current_tracer()
    if tracer is not NULL_TRACER:
        trace_id = entry.job.trace.trace_id if entry.job.trace else None
        if entry.queue_wait > 0:
            tracer.add_record(
                f"executor/queue-wait/{entry.job.kernel}",
                entry.started_pc - entry.queue_wait,
                entry.queue_wait,
                trace=trace_id,
            )
        tracer.add_record(
            f"executor/job/{entry.job.kernel}",
            entry.started_pc,
            elapsed,
            {"outcome": outcome},
            trace=trace_id,
        )


def _prebuild_datasets(pending: list[Job]) -> None:
    """Build (or load) each distinct corpus once in the parent before
    the pool forks: workers inherit the in-memory corpus (and find the
    disk artifact), so N workers never race one cold build — the store's
    lock makes such races correct, but serial-build-then-fork is faster
    and keeps worker wall times comparable."""
    specs = {}
    for job in pending:
        spec = scenario_spec(job.scenario, scale=job.scale, seed=job.seed)
        specs.setdefault(spec.digest(), spec)
    for spec in specs.values():
        ensure_corpus(spec)


def _execute_pool(
    jobs: list[Job], workers: int, timeout: float | None,
    spool_dir: "str | Path | None" = None,
) -> list[KernelReport]:
    """Run *jobs* over *workers* processes with per-job deadlines.

    *spool_dir* overrides the per-pool temporary span-spool directory
    (tests point it somewhere inspectable).  Spool files are unlinked
    as each job finishes — once the spans are shipped back (or
    recovered for a failed job) the spool has served its purpose.
    """
    ctx = _mp_context()
    queue: deque[tuple[int, Job]] = deque(enumerate(jobs))
    running: dict[multiprocessing.connection.Connection, _Running] = {}
    results: list[KernelReport | None] = [None] * len(jobs)
    pool_start = time.monotonic()

    def finish(conn, report: KernelReport, terminate: bool = False) -> None:
        entry = running.pop(conn)
        if terminate:
            entry.process.terminate()
        entry.process.join(timeout=5)
        conn.close()
        elapsed = time.monotonic() - entry.started
        if report.error is not None:
            # A timed-out / crashed / raising job still spent real wall
            # time; report it, plus whatever spans hit the spool before
            # the worker went away.
            if report.wall_seconds == 0.0:
                report.wall_seconds = elapsed
            if not report.spans:
                report.spans = _read_spool(entry.spool_path)
        _record_job(entry, report, elapsed)
        entry.spool_path.unlink(missing_ok=True)
        results[entry.index] = report

    owned_dir = None
    if spool_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-spans-")
        spool_root = Path(owned_dir.name)
    else:
        spool_root = Path(spool_dir)
        spool_root.mkdir(parents=True, exist_ok=True)
    try:
        try:
            while queue or running:
                while queue and len(running) < workers:
                    index, job = queue.popleft()
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    spool_path = spool_root / f"job-{index}.jsonl"
                    process = ctx.Process(
                        target=_job_worker,
                        args=(job, child_conn, str(spool_path)),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    launched = time.monotonic()
                    running[parent_conn] = _Running(
                        index=index,
                        job=job,
                        process=process,
                        deadline=launched + timeout if timeout else None,
                        started=launched,
                        started_pc=time.perf_counter(),
                        queue_wait=launched - pool_start,
                        spool_path=spool_path,
                    )
                ready = multiprocessing.connection.wait(
                    list(running), timeout=0.05
                )
                for conn in ready:
                    entry = running[conn]
                    try:
                        report = conn.recv()
                    except EOFError:
                        # The worker died without reporting (hard crash).
                        code = entry.process.exitcode
                        report = _failure_report(
                            entry.job, f"WorkerDied: exit code {code}"
                        )
                    if (entry.deadline is not None
                            and time.monotonic() > entry.deadline):
                        # Judged on arrival: a report that lands between
                        # two polls but after its deadline is late.
                        late = _failure_report(
                            entry.job, f"Timeout: exceeded {timeout:g}s"
                        )
                        late.spans = report.spans
                        report = late
                    finish(conn, report)
                now = time.monotonic()
                for conn, entry in list(running.items()):
                    if entry.deadline is not None and now > entry.deadline:
                        finish(
                            conn,
                            _failure_report(
                                entry.job, f"Timeout: exceeded {timeout:g}s"
                            ),
                            terminate=True,
                        )
        finally:
            for conn, entry in list(running.items()):
                entry.process.terminate()
                entry.process.join(timeout=5)
                conn.close()
    finally:
        if owned_dir is not None:
            owned_dir.cleanup()
    return [report for report in results if report is not None]


#: How a :class:`JobOutcome`'s report was produced.
EXECUTED, CACHED = "executed", "cached"


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus where it came from (fresh run or cache).

    ``execute_jobs`` returns these in submission order, so grids that
    run the same kernel many times (one per scenario cell — the sweep
    driver's shape) keep every report.
    """

    job: Job
    report: KernelReport
    origin: str = EXECUTED


def execute_jobs(
    jobs: "list[Job] | tuple[Job, ...]",
    workers: int = 1,
    timeout: float | None = None,
    store: ResultStore | None = None,
) -> list[JobOutcome]:
    """Execute *jobs* and return one :class:`JobOutcome` per job, in
    order.

    With a *store*, cached reports are served without executing the
    kernel (``origin == "cached"``) and fresh successful reports are
    written back; ``store=None`` executes every job.  A *timeout*
    needs process isolation, so setting one sends even a
    ``workers == 1`` batch through the worker pool.
    """
    if workers < 1:
        raise KernelError("workers must be >= 1")

    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    pending: list[tuple[int, Job]] = []
    for index, job in enumerate(jobs):
        cached = store.load(job) if store is not None else None
        if cached is not None:
            outcomes[index] = JobOutcome(job=job, report=cached,
                                         origin=CACHED)
        else:
            pending.append((index, job))

    pending_jobs = [job for _, job in pending]
    if workers == 1 and timeout is None:
        executed = [_execute_job(job) for job in pending_jobs]
    else:
        if len(pending_jobs) > 1:
            _prebuild_datasets(pending_jobs)
        executed = _execute_pool(pending_jobs, workers=workers,
                                 timeout=timeout)

    for (index, job), report in zip(pending, executed):
        if store is not None:
            store.save(job, report)
        outcomes[index] = JobOutcome(job=job, report=report, origin=EXECUTED)
    return [outcome for outcome in outcomes if outcome is not None]
