"""The benchmark-as-a-service layer: an async job API over the engine.

:class:`BenchService` turns the batch-shaped harness (compile a plan,
execute it, collect reports) into a long-running service::

    with BenchService(workers=4) as service:
        handle = service.submit("gbwt", studies=("timing",), scale=0.25)
        handle.poll()            # JobStatus(state="queued"/"running"/...)
        report = handle.wait()   # the KernelReport, when it lands

Four mechanisms stack on top of the existing executor:

* **Async job API** — ``submit`` returns a :class:`JobHandle`
  immediately; ``poll``/``wait``/``subscribe`` observe completion.  A
  pool of worker threads drains the queue; each execution runs through
  the same engine path as ``repro run`` (process isolation by default,
  so per-job timeouts and failure isolation are inherited from the
  executor).
* **Request coalescing** — submissions are single-flighted by
  ``job_digest``: while a job is in flight, identical submissions attach
  to it and share the one execution (the dataset store's build-once
  double-check pattern, lifted to runs).  ``serve.coalesced`` vs
  ``serve.executed`` proves the dedup.
* **Result caching** — completed reports land in a
  :class:`~repro.harness.store.ResultStore`; a submission whose
  digest is already cached resolves immediately (``serve.cache_hits``).
* **Admission control** — the queue has a high-water mark; a submission
  past it raises :class:`~repro.errors.ServiceOverloaded` carrying a
  ``retry_after`` estimate derived from the moving-average execution
  time, instead of letting the backlog grow without bound.

Every lifecycle stage is observable: ``serve/queue-wait/<kernel>``,
``serve/coalesce/<kernel>`` and ``serve/execute/<kernel>`` spans land in
the ambient tracer when one is installed, and the service's own
:class:`~repro.obs.metrics.MetricsRegistry` (``service.metrics``) holds
the counters plus ``serve.latency_seconds`` histograms; ``shutdown``
folds it into the process-current registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.errors import ServeError, ServeTimeout, ServiceOverloaded
from repro.harness.executor import (
    Job,
    _execute_job,
    _execute_pool,
    _failure_report,
    _prebuild_datasets,
    compile_plan,
)
from repro.harness.runner import KernelReport
from repro.harness.store import ResultStore, job_digest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as _trace
from repro.obs.context import TraceContext
from repro.obs.spans import NULL_TRACER
from repro.uarch.cache import MACHINE_B, CacheConfig

#: Handle lifecycle states.
QUEUED, RUNNING, DONE = "queued", "running", "done"

#: How a handle's report was produced.
EXECUTED, COALESCED, CACHED = "executed", "coalesced", "cached"

#: Latency histogram bounds — the executor's seconds-flavoured defaults
#: are too coarse for cache-hit latencies, which sit well under 1 ms.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


@dataclass
class JobStatus:
    """A point-in-time snapshot of one submission."""

    digest: str
    state: str
    origin: str | None = None
    report: KernelReport | None = None
    error: str | None = None
    latency_seconds: float | None = None


class JobHandle:
    """The caller's view of one submission (possibly coalesced)."""

    def __init__(self, service: "BenchService", job: Job,
                 digest: str) -> None:
        self.job = job
        self.digest = digest
        self.origin: str | None = None
        self.trace: TraceContext | None = None
        self.submitted = time.perf_counter()
        self.resolved_at: float | None = None
        self._service = service
        self._done = threading.Event()
        self._report: KernelReport | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    # -- resolution (service-side) ------------------------------------

    def _resolve(self, report: KernelReport, origin: str) -> None:
        with self._cb_lock:
            self.origin = origin
            self.resolved_at = time.perf_counter()
            self._report = report
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(report)
            except Exception:  # noqa: BLE001 — a subscriber must not
                pass           # take down the resolving worker

    # -- observation (caller-side) ------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-resolve wall time (``None`` while unresolved)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted

    @property
    def trace_id(self) -> str | None:
        """This request's trace id (minted at submit)."""
        return self.trace.trace_id if self.trace is not None else None

    def poll(self) -> JobStatus:
        if self._done.is_set():
            report = self._report
            return JobStatus(
                digest=self.digest, state=DONE, origin=self.origin,
                report=report, error=report.error if report else None,
                latency_seconds=self.latency_seconds,
            )
        state = RUNNING if self._service._is_running(self.digest) else QUEUED
        return JobStatus(digest=self.digest, state=state)

    def wait(self, timeout: float | None = None) -> KernelReport:
        """Block until the report lands (raises :class:`ServeTimeout`
        after *timeout* seconds)."""
        if not self._done.wait(timeout):
            raise ServeTimeout(
                f"job {self.job.kernel}/{self.digest} still "
                f"{self.poll().state} after {timeout:g}s"
            )
        assert self._report is not None
        return self._report

    def subscribe(self, callback) -> None:
        """Invoke ``callback(report)`` when the job resolves (immediately
        if it already has)."""
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self._report)


@dataclass
class _Ticket:
    """One in-flight execution and everyone waiting on it."""

    job: Job
    digest: str
    handles: list[JobHandle] = field(default_factory=list)
    enqueued: float = field(default_factory=time.perf_counter)
    running: bool = False


class BenchService:
    """A long-running benchmark service over the harness engine.

    * ``workers`` — concurrent executions (worker threads; with
      ``isolation="process"`` each drives its own executor worker
      process, so executions genuinely run in parallel).
    * ``max_queue`` — admission-control high-water mark: distinct
      (non-coalesced, non-cached) submissions past this many pending
      tickets are rejected with :class:`ServiceOverloaded`.
    * ``timeout`` — per-job wall-clock limit, enforced by the executor's
      process pool (requires ``isolation="process"``, the default).
    * ``isolation`` — ``"process"`` routes executions through the
      executor's failure-isolated pool; ``"inline"`` runs them on the
      worker thread (fast and deterministic; no timeout enforcement,
      best with ``workers=1`` or an injected ``runner``).
    * ``store`` — the report cache; ``None`` means a
      :class:`~repro.harness.store.ResultStore` over the default cache
      directory.
      ``reuse=False`` disables caching entirely (every submission
      executes or coalesces).
    * ``runner`` — test hook: a ``Job -> KernelReport`` callable
      replacing the engine execution path.
    * ``telemetry_port`` — when set, :meth:`start` binds a
      :class:`~repro.obs.telemetry.TelemetryServer` on
      ``127.0.0.1:<port>`` (0 = ephemeral) exposing ``/metrics``,
      ``/healthz`` and ``/readyz`` for this service; ``shutdown`` stops
      it.  ``None`` (default) serves no HTTP — zero overhead.
    """

    def __init__(self, workers: int = 2, max_queue: int = 64,
                 timeout: float | None = None,
                 isolation: str = "process",
                 store: ResultStore | None = None,
                 reuse: bool = True,
                 runner=None,
                 autostart: bool = True,
                 telemetry_port: "int | None" = None) -> None:
        if workers < 1:
            raise ServeError("workers must be >= 1")
        if isolation not in ("process", "inline"):
            raise ServeError("isolation must be 'process' or 'inline'")
        self.workers = workers
        self.max_queue = max_queue
        self.timeout = timeout
        self.isolation = isolation
        self.store = (store if store is not None
                      else ResultStore() if reuse else None)
        self.runner = runner
        self.telemetry_port = telemetry_port
        self.telemetry = None
        self.metrics = obs_metrics.MetricsRegistry()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque[_Ticket] = deque()
        self._inflight: dict[str, _Ticket] = {}
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._started_at = time.monotonic()
        self._avg_execute: float | None = None
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "BenchService":
        """Launch the worker pool (idempotent).  Corpora for already-
        queued jobs are prebuilt first, so workers never race a cold
        dataset build."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            queued = [ticket.job for ticket in self._queue]
        if queued:
            _prebuild_datasets(queued)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._started_at = time.monotonic()
        if self.telemetry_port is not None and self.telemetry is None:
            from repro.obs.telemetry import TelemetryServer
            self.telemetry = TelemetryServer(
                service=self, port=self.telemetry_port).start()
        return self

    def shutdown(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting work, drain the pool, and fold the service
        metrics into the process-current registry."""
        with self._work:
            self._stopping = True
            self._work.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
        self._threads = []
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None
        obs_metrics.current_registry().merge_dict(self.metrics.as_dict())

    def __enter__(self) -> "BenchService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------

    def submit(self, kernel: str, studies: tuple[str, ...] = ("timing",),
               scale: float = 1.0, seed: int = 0,
               scenario: str = "default",
               cache_config: CacheConfig = MACHINE_B,
               backend: str | None = None) -> JobHandle:
        """Validate and enqueue one request; returns immediately.

        Raises :class:`~repro.errors.KernelError` on unknown
        kernel/study/scenario/backend names and
        :class:`ServiceOverloaded` when the queue is past its high-water
        mark.  *backend* joins the job digest, so requests for distinct
        backends of one kernel neither coalesce nor share cache entries.
        """
        plan = compile_plan(
            (kernel,), studies=tuple(studies), scale=scale, seed=seed,
            cache_config=cache_config, scenario=scenario, backend=backend,
        )
        return self.submit_job(plan.jobs[0])

    def submit_job(self, job: Job,
                   context: "TraceContext | None" = None) -> JobHandle:
        """Enqueue a pre-compiled :class:`Job` (no re-validation).

        Every submission gets a :class:`TraceContext` (*context* >
        ``job.trace`` > freshly minted): a ``serve/submit/<kernel>``
        record is emitted into the ambient tracer when one is
        installed, and the context — trace id plus that record's span
        id — rides on the job into the executor so child-process spans
        stitch into this request's trace.  Coalesced and cache-hit
        submissions keep their own trace id and get an annotated link
        span pointing at the execution that serves them.
        """
        context = context or job.trace or TraceContext.mint()
        submit_record = self._record_span(
            f"serve/submit/{job.kernel}", time.perf_counter(), 0.0,
            trace=context.trace_id,
        )
        if submit_record is not None:
            context = context.child(submit_record["id"])
        if job.trace is not context:
            job = replace(job, trace=context)
        digest = job_digest(job)
        handle = JobHandle(self, job, digest)
        handle.trace = context
        with self._work:
            if self._stopping:
                raise ServeError("service is shutting down")
            self.metrics.counter("serve.submitted", kernel=job.kernel).inc()
            # Single-flight: identical in-flight submission → attach.
            ticket = self._inflight.get(digest)
            if ticket is not None:
                ticket.handles.append(handle)
                handle.origin = COALESCED
                self.metrics.counter("serve.coalesced",
                                     kernel=job.kernel).inc()
                link_attrs = {"digest": digest}
                if ticket.job.trace is not None:
                    link_attrs["link"] = ticket.job.trace.trace_id
                self._record_span(f"serve/coalesce/{job.kernel}",
                                  time.perf_counter(), 0.0,
                                  link_attrs, trace=context.trace_id)
                return handle
            # Double-check the result store under the same lock: a run
            # that completed between the caller's decision to submit and
            # now is a hit, never a second execution.
            hit = self.store.load(job) if self.store is not None else None
            if hit is not None:
                self.metrics.counter("serve.cache_hits",
                                     kernel=job.kernel).inc()
                link_attrs = {"digest": digest}
                original = next((r.get("trace") for r in hit.spans
                                 if r.get("trace")), None)
                if original is not None:
                    link_attrs["link"] = original
                self._record_span(f"serve/cache-hit/{job.kernel}",
                                  time.perf_counter(), 0.0,
                                  link_attrs, trace=context.trace_id)
            else:
                # Admission control: the queue has a high-water mark.
                if len(self._queue) >= self.max_queue:
                    retry_after = self._retry_after_locked()
                    self.metrics.counter("serve.rejected",
                                         kernel=job.kernel).inc()
                    raise ServiceOverloaded(
                        f"queue at high-water mark ({self.max_queue} "
                        f"pending); retry in {retry_after:.2f}s",
                        retry_after=retry_after,
                    )
                ticket = _Ticket(job=job, digest=digest, handles=[handle])
                self._inflight[digest] = ticket
                self._queue.append(ticket)
                self._work.notify()
        if hit is not None:
            self._resolve_handle(handle, hit, CACHED)
        return handle

    def _retry_after_locked(self) -> float:
        average = self._avg_execute if self._avg_execute else 0.5
        backlog = len(self._queue) + 1
        return max(0.05, backlog * average / self.workers)

    # -- handle support ------------------------------------------------

    def _is_running(self, digest: str) -> bool:
        with self._lock:
            ticket = self._inflight.get(digest)
            return ticket is not None and ticket.running

    def _resolve_handle(self, handle: JobHandle, report: KernelReport,
                        origin: str) -> None:
        handle._resolve(report, origin)
        with self._lock:
            self.metrics.histogram(
                "serve.latency_seconds", bounds=LATENCY_BUCKETS,
                origin=origin,
            ).observe(handle.latency_seconds or 0.0)

    @staticmethod
    def _record_span(name: str, start: float, duration: float,
                     attrs: dict | None = None,
                     trace: "str | None" = None) -> "dict | None":
        tracer = _trace.current_tracer()
        if tracer is not NULL_TRACER:
            return tracer.add_record(name, start, duration, attrs,
                                     trace=trace)
        return None

    # -- execution -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._stopping:
                    self._work.wait(timeout=0.5)
                if self._stopping and not self._queue:
                    return
                ticket = self._queue.popleft()
                ticket.running = True
                queue_wait = time.perf_counter() - ticket.enqueued
                self.metrics.histogram(
                    "serve.queue_wait_seconds", bounds=LATENCY_BUCKETS,
                ).observe(queue_wait)
            if queue_wait > 0:
                self._record_span(
                    f"serve/queue-wait/{ticket.job.kernel}",
                    ticket.enqueued, queue_wait,
                    trace=ticket.job.trace.trace_id
                    if ticket.job.trace else None,
                )
            self._execute_ticket(ticket, queue_wait)

    def _execute_ticket(self, ticket: _Ticket, queue_wait: float) -> None:
        job = ticket.job
        started = time.perf_counter()
        try:
            report = self._run(job)
        except Exception as error:  # noqa: BLE001 — a worker must survive
            report = _failure_report(job, f"{type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        self._record_span(
            f"serve/execute/{job.kernel}", started, elapsed,
            {"digest": ticket.digest,
             "outcome": "ok" if report.error is None else "error"},
            trace=job.trace.trace_id if job.trace else None,
        )
        # Cache before unregistering the flight: a concurrent submit
        # sees either the in-flight ticket (coalesce) or the cached
        # report (hit) — never a gap that re-executes.
        if self.store is not None:
            self.store.save(job, report)
        with self._lock:
            self._inflight.pop(ticket.digest, None)
            handles = list(ticket.handles)
            outcome = "ok" if report.error is None else "error"
            self.metrics.counter("serve.executed", kernel=job.kernel,
                                 outcome=outcome).inc()
            self.metrics.histogram(
                "serve.execute_seconds", kernel=job.kernel,
            ).observe(elapsed)
            self._avg_execute = (
                elapsed if self._avg_execute is None
                else 0.8 * self._avg_execute + 0.2 * elapsed
            )
        for index, handle in enumerate(handles):
            self._resolve_handle(
                handle, report, EXECUTED if index == 0 else COALESCED
            )

    def _run(self, job: Job) -> KernelReport:
        if self.runner is not None:
            return self.runner(job)
        # Build (or warm-load) the corpus in this process first: with
        # process isolation the forked executor worker inherits it, and
        # concurrent service workers share one flock-guarded build.
        _prebuild_datasets([job])
        if self.isolation == "inline":
            return _execute_job(job)
        reports = _execute_pool([job], workers=1, timeout=self.timeout)
        if not reports:  # pragma: no cover - defensive; pool always reports
            raise ServeError(f"executor returned no report for {job.kernel}")
        return reports[0]

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time queue/flight depths plus the metrics export."""
        with self._lock:
            return {
                "queued": len(self._queue),
                "inflight": len(self._inflight),
                "workers": self.workers,
                "metrics": self.metrics.as_dict(),
            }

    def _workers_alive_locked(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    def health(self) -> dict:
        """Liveness snapshot (the ``/healthz`` payload): ``ok`` while
        the service accepts work and its worker threads are up."""
        with self._lock:
            alive = self._workers_alive_locked()
            healthy = (not self._stopping
                       and (not self._started or alive > 0))
            return {
                "status": "ok" if healthy else "stopping"
                if self._stopping else "degraded",
                "started": self._started,
                "uptime_seconds": round(
                    time.monotonic() - self._started_at, 3),
                "workers": {"configured": self.workers, "alive": alive},
                "isolation": self.isolation,
            }

    def readiness(self) -> dict:
        """Readiness snapshot (the ``/readyz`` payload): queue depth,
        inflight count, worker liveness and cache occupancy; ``ready``
        is False while the queue sits at its admission high-water mark
        or the pool is not running."""
        with self._lock:
            queued = len(self._queue)
            inflight = len(self._inflight)
            alive = self._workers_alive_locked()
            ready = (self._started and not self._stopping
                     and alive > 0 and queued < self.max_queue)
        cache: dict = {}
        store = self.store
        if store is not None:
            try:
                cache = {"entries": len(store.entries()),
                         "bytes": store.total_bytes()}
            except OSError:  # a scrape must not fail on store races
                cache = {}
        return {
            "ready": ready,
            "queue_depth": queued,
            "max_queue": self.max_queue,
            "inflight": inflight,
            "workers_alive": alive,
            "cache": cache,
        }


def counter_total(exported: dict, name: str) -> float:
    """Sum every series of counter *name* in a metrics export."""
    prefix = name + "{"
    return sum(value for key, value in exported.get("counters", {}).items()
               if key == name or key.startswith(prefix))
