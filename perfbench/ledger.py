"""The per-layer ledger: runtime wrappers around the program's public
entry points, recording spans with ``repro.obs.spans.Tracer``.

The ledger never edits the program.  :meth:`Ledger.install` swaps
wrappers in at runtime (module attributes and class methods) and
:meth:`Ledger.uninstall` puts the originals back, so one process can
alternate untraced and traced passes and price its own overhead.  The
tracer is *not* installed as ``repro.obs.trace``'s current tracer: the
program keeps running on its null tracer (no phase attributor, no span
spooling), and only the benchmark's own spans are recorded.

Layers and the span names that stand for them:

* ``data.fetch`` — ``ArtifactStore.fetch`` / ``fetch_derived``
  (memory ring -> disk -> build), plus ``data.prebuild`` for the
  service's ``_prebuild_datasets``;
* ``kernels.run`` / ``kernels.prepare`` — ``Kernel.run`` and
  ``Kernel.ensure_prepared``; probe time inside ``kernels.run`` is the
  instrument's, the rest is the kernel's own;
* ``uarch.summary`` — ``TraceMachine.summary`` and ``topdown.analyze``;
  the probe methods are timed by counters (they are called ~80 k times
  a pass, too often for a span each);
* ``harness.plan`` / ``harness.engine`` / ``harness.executor`` /
  ``harness.store.load`` / ``harness.store.save`` — ``run_suite``,
  ``run_kernel_studies``, the executor's process pool and the result
  store;
* ``serve.submit`` / ``serve.execute`` — ``BenchService.submit_job``
  and one execution on a service worker thread.

A layer's self time is its spans' durations minus what their child
spans cover; probe time is subtracted from ``kernels.run``.  The
ledger is checked against times the benchmark and the program measure
themselves (:func:`check_ledger`, :func:`check_kernel_cover`).
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.data import store as data_store
from repro.harness import executor, studies
from repro.harness import runner
from repro.harness.runner import KernelReport
from repro.kernels.base import Kernel
from repro.obs.spans import NULL_SPAN, Tracer, write_chrome_trace
from repro.serve import service
from repro.serve.service import counter_total
from repro.serve.shards import ShardedResultStore
from repro.uarch.machine import TraceMachine

#: Every ``MachineProbe`` entry point a kernel may call.
PROBE_METHODS = ("alu", "load", "store", "branch", "branch_run",
                 "branch_bulk", "load_block", "store_block", "branch_trace",
                 "alu_bulk", "touch_region")

#: Span name -> the layer its self time is charged to.
SPAN_LAYERS = {
    "data.fetch": "data",
    "data.prebuild": "data",
    "kernels.run": "kernels.execute_self",
    "kernels.prepare": "kernels.prepare",
    "uarch.summary": "uarch.summary",
    "harness.plan": "harness.plan_self",
    "harness.engine": "harness.engine_self",
    "harness.executor": "harness.executor",
    "harness.store.load": "harness.store.load",
    "harness.store.save": "harness.store.save",
    "serve.submit": "serve",
    "serve.execute": "serve",
}


def gauge_sum(metrics: dict, name: str) -> float:
    """Sum of every series of gauge *name* in a metrics export."""
    prefix = name + "{"
    return sum(value for key, value in metrics.get("gauges", {}).items()
               if key == name or key.startswith(prefix))


class Ledger:
    """Spans plus probe counters for one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.pid = os.getpid()
        self.probe_seconds = 0.0
        self.probe_calls = 0
        self._probe_depth = 0
        self._saved: list[tuple[object, str, object]] = []
        self.machine_class = self._timed_machine_class()

    # -- spans ---------------------------------------------------------

    def span(self, name: str, attrs: dict | None = None):
        # Executor workers fork with the wrappers in place; a child must
        # not touch the tracer, whose lock another parent thread may have
        # held at the fork.
        if os.getpid() != self.pid:
            return NULL_SPAN
        return self.tracer.span(name, attrs)

    def records(self) -> list[dict]:
        return self.tracer.records()

    def mark(self) -> int:
        return self.tracer.mark()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(self.records(), path)

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            return
        ledger = self

        def spanned(name, original, attrs_of=None, after=None):
            def wrapper(*args, **kwargs):
                attrs = attrs_of(*args, **kwargs) if attrs_of else {}
                with ledger.span(name, attrs):
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(attrs, result)
                return result
            return wrapper

        def record_origin(attrs, result):
            attrs["origin"] = result[1]

        def kernel_attrs(kernel, *args, **kwargs):
            return {"kernel": kernel.name}

        original_run = Kernel.__dict__["run"]

        def run(kernel, *args, **kwargs):
            attrs = {"kernel": kernel.name}
            probe_before = (ledger.probe_seconds, ledger.probe_calls)
            with ledger.span("kernels.run", attrs):
                result = original_run(kernel, *args, **kwargs)
                attrs["probe_s"] = ledger.probe_seconds - probe_before[0]
                attrs["probe_calls"] = ledger.probe_calls - probe_before[1]
                attrs["inputs"] = result.inputs_processed
            return result

        def pool(jobs, *args, **kwargs):
            attrs = {"kernel": jobs[0].kernel if jobs else ""}
            with ledger.span("harness.executor", attrs):
                reports = executor._execute_pool(jobs, *args, **kwargs)
                attrs["child_prepare_s"] = sum(
                    gauge_sum(r.metrics, "kernel.prepare_seconds")
                    for r in reports)
                attrs["child_execute_s"] = sum(
                    gauge_sum(r.metrics, "kernel.execute_seconds")
                    for r in reports)
                attrs["child_builds"] = sum(
                    counter_total(r.metrics, "data.store.builds")
                    for r in reports)
                attrs["inputs"] = sum(r.inputs_processed for r in reports)
            return reports

        def engine_attrs(name, *args, **kwargs):
            return {"kernel": name}

        def after_engine(attrs, report: KernelReport):
            attrs["instructions"] = report.instructions

        store = data_store.ArtifactStore
        self._patch(store, "fetch", spanned(
            "data.fetch", store.fetch, after=record_origin))
        self._patch(store, "fetch_derived", spanned(
            "data.fetch", store.fetch_derived, after=record_origin))
        self._patch(Kernel, "run", run)
        self._patch(Kernel, "ensure_prepared", spanned(
            "kernels.prepare", Kernel.ensure_prepared, kernel_attrs))
        self._patch(runner, "TraceMachine", self.machine_class)
        self._patch(studies, "analyze", spanned(
            "uarch.summary", studies.analyze))
        self._patch(executor, "run_kernel_studies", spanned(
            "harness.engine", executor.run_kernel_studies, engine_attrs,
            after_engine))
        self._patch(runner, "run_suite", spanned(
            "harness.plan", runner.run_suite))
        self._patch(ShardedResultStore, "load", spanned(
            "harness.store.load", ShardedResultStore.load))
        self._patch(ShardedResultStore, "save", spanned(
            "harness.store.save", ShardedResultStore.save))
        self._patch(service, "_execute_pool", pool)
        self._patch(service, "_prebuild_datasets", spanned(
            "data.prebuild", service._prebuild_datasets))
        bench = service.BenchService
        self._patch(bench, "submit_job", spanned(
            "serve.submit", bench.submit_job))
        self._patch(bench, "_execute_ticket", spanned(
            "serve.execute", bench._execute_ticket))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the instrument ------------------------------------------------

    def _timed_machine_class(self) -> type:
        """A :class:`TraceMachine` whose probe methods add their wall
        time and call count to this ledger.  Nested probe calls (the
        base class's ``branch_run`` calls ``branch``) count once."""
        ledger = self
        namespace = {}
        for method in PROBE_METHODS:
            base = getattr(TraceMachine, method)

            def timed(machine, *args, _base=base, **kwargs):
                if ledger._probe_depth:
                    return _base(machine, *args, **kwargs)
                ledger._probe_depth = 1
                started = perf_counter()
                try:
                    return _base(machine, *args, **kwargs)
                finally:
                    ledger.probe_seconds += perf_counter() - started
                    ledger.probe_calls += 1
                    ledger._probe_depth = 0

            namespace[method] = timed

        def summary(machine):
            with ledger.span("uarch.summary"):
                return TraceMachine.summary(machine)

        namespace["summary"] = summary
        return type("TimedTraceMachine", (TraceMachine,), namespace)


def self_times(records: list[dict]) -> dict[str, float]:
    """Self seconds per layer (see :data:`SPAN_LAYERS`) over *records*.

    Child-process kernel time reported through ``harness.executor``
    attrs and probe time reported through ``kernels.run`` attrs are
    moved out of their span's self time into their own layers.
    """
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for record in records:
        if record["parent"] != -1:
            covered[(record["pid"], record["parent"])] += record["dur"]
    layers: dict[str, float] = defaultdict(float)
    for record in records:
        own = record["dur"] - covered[(record["pid"], record["id"])]
        attrs = record.get("attrs", {})
        if record["name"] == "kernels.run":
            layers["uarch.probe"] += attrs.get("probe_s", 0.0)
            own -= attrs.get("probe_s", 0.0)
        elif record["name"] == "harness.executor":
            child = (attrs.get("child_prepare_s", 0.0)
                     + attrs.get("child_execute_s", 0.0))
            layers["kernels.child"] += child
            own -= child
        layers[SPAN_LAYERS[record["name"]]] += own
    return dict(layers)


def roots_wall(records: list[dict]) -> float:
    """Summed duration of the root spans in *records*."""
    return sum(record["dur"] for record in records if record["parent"] == -1)


#: The largest share of an independently measured wall that the ledger
#: may leave uncovered.  The wrappers' own overhead lies outside their
#: spans and stays well below it.
MAX_UNATTRIBUTED = 0.02


class LedgerError(AssertionError):
    """The ledger does not account for the measured time."""


def check_ledger(records: list[dict], wall: float,
                 covered: float | None = None,
                 tolerance: float = 1e-3) -> dict:
    """Check the ledger against *wall*, a time measured outside the
    ledger around the same calls, and return the layer -> seconds map.

    *covered* is the span time inside *wall* (default: all root spans).
    ``bench.unattributed`` is *wall* minus *covered*: what was measured
    that no wrapper saw.  It may not be negative (the spans claim more
    time than passed) nor above :data:`MAX_UNATTRIBUTED` of *wall* (a
    program path that bypasses the wrappers).  No layer's self time may
    be negative.
    """
    layers = self_times(records)
    if covered is None:
        covered = roots_wall(records)
    unattributed = wall - covered
    if unattributed < -tolerance:
        raise LedgerError(f"the ledger's spans cover {-unattributed:.6f}s "
                          f"more than the measured wall of {wall:.6f}s")
    if unattributed > MAX_UNATTRIBUTED * wall + tolerance:
        raise LedgerError(f"{unattributed:.6f}s of the measured wall of "
                          f"{wall:.6f}s is in no layer (limit "
                          f"{MAX_UNATTRIBUTED:.0%})")
    negative = {name: value for name, value in layers.items()
                if value < -tolerance}
    if negative:
        raise LedgerError(f"negative layer self time: {negative}")
    layers["bench.unattributed"] = unattributed
    return layers


def check_kernel_cover(records: list[dict], reports: dict,
                       tolerance: float = 0.05) -> None:
    """Each kernel's execute time in the ledger must match the time the
    program measured itself (its ``kernel.execute_seconds`` gauge), so a
    kernel that runs outside the wrapped ``Kernel.run`` fails the run.
    With a simulated machine, the timed probe methods must have been
    called, so a machine that is not the ledger's subclass fails too."""
    prepare: dict[int, float] = defaultdict(float)
    for record in records:
        if record["name"] == "kernels.prepare":
            prepare[record["parent"]] += record["dur"]
    execute: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for record in records:
        if record["name"] == "kernels.run":
            name = record["attrs"]["kernel"]
            execute[name] += record["dur"] - prepare[record["id"]]
            calls[name] += record["attrs"]["probe_calls"]
    for name, report in reports.items():
        program = gauge_sum(report.metrics, "kernel.execute_seconds")
        if abs(execute[name] - program) > tolerance * program + 2e-3:
            raise LedgerError(
                f"{name}: the ledger has {execute[name]:.4f}s of execute "
                f"time, the program measured {program:.4f}s")
        if report.instructions and not calls[name]:
            raise LedgerError(f"{name}: {report.instructions} simulated "
                              f"instructions but no timed probe call")
