"""repro.obs: the observability layer (spans, metrics, attribution).

The paper's characterization is *regional* — VTune top-down per pipeline
phase, PIN instruction mixes, per-stage runtime breakdowns (Figs. 2/3/6)
— so the reproduction needs observability smaller than one kernel run.
Three cooperating pieces:

* :mod:`repro.obs.spans` — a hierarchical, thread-safe span tracer with
  a zero-overhead null implementation, a text tree report, and Chrome
  trace-event JSON export (loadable in Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.metrics` — a process-local registry of labeled
  counters / gauges / histograms with a JSON-merging export that rides
  inside :class:`~repro.harness.runner.KernelReport`;
* :mod:`repro.obs.attribution` — a span listener that takes the
  :class:`~repro.uarch.machine.TraceMachine`'s
  :class:`~repro.uarch.machine.MachineSummary` at span boundaries and
  keeps each phase's difference as a summary of its own, yielding
  per-phase top-down / MPKI / instruction-mix (the VTune-regions analog
  of the paper's Fig. 6).

:mod:`repro.obs.trace` holds the process-current tracer; library code
calls ``trace.span("seqwish/closure")`` and pays nothing unless a real
tracer is installed (``repro trace <kernel>`` or ``--trace-out``).

The telemetry plane (PR 8) adds four more pieces:

* :mod:`repro.obs.exposition` — Prometheus-style text exposition and
  JSON snapshots of any registry export;
* :mod:`repro.obs.telemetry` — the background HTTP endpoint
  (``/metrics``, ``/healthz``, ``/readyz``) a
  :class:`~repro.serve.service.BenchService` serves scrape traffic
  from (imported lazily — pulling :mod:`http.server` into every kernel
  run would be waste);
* :mod:`repro.obs.context` — :class:`TraceContext` request identity
  propagated across the process pool so one submission's spans stitch
  into one trace;
* :mod:`repro.obs.baseline` — the median±MAD perf-regression sentinel
  over the committed ``BENCH_*.json`` trajectories (``repro obs
  check``).
"""

from repro.obs.attribution import UNTRACED, PhaseAttributor
from repro.obs.context import TraceContext, annotate_records, stitch_trace
from repro.obs.exposition import (
    exposition,
    parse_series,
    registry_from_snapshot,
    snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    chrome_trace,
    render_tree,
    spans_from_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "PhaseAttributor",
    "UNTRACED",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "TraceContext",
    "annotate_records",
    "stitch_trace",
    "chrome_trace",
    "exposition",
    "parse_series",
    "registry_from_snapshot",
    "render_tree",
    "snapshot",
    "spans_from_chrome_trace",
    "write_chrome_trace",
]
