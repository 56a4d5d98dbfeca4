"""Benchmark-as-a-service: the always-on layer over the harness engine.

* :class:`~repro.serve.service.BenchService` — async submit/poll/wait/
  subscribe job API with request coalescing and admission control;
* ``ShardedResultStore`` — the serve-layer name of the report cache,
  :class:`repro.harness.store.ResultStore` (see :mod:`repro.serve.shards`);
* :mod:`repro.serve.loadgen` — seeded request distributions and the
  replay driver behind ``benchmarks/bench_serve_load.py`` and
  ``repro serve bench``.
"""

from repro.errors import ServeError, ServeTimeout, ServiceOverloaded
from repro.serve.loadgen import (
    DEFAULT_KERNELS,
    ReplayResult,
    TraceSpec,
    duplicate_fraction,
    generate_requests,
    replay,
    working_set,
)
from repro.serve.service import (
    CACHED,
    COALESCED,
    DONE,
    EXECUTED,
    QUEUED,
    RUNNING,
    BenchService,
    JobHandle,
    JobStatus,
    counter_total,
)
from repro.serve.shards import ShardedResultStore

__all__ = [
    "BenchService", "JobHandle", "JobStatus", "ShardedResultStore",
    "TraceSpec", "ReplayResult", "generate_requests", "working_set",
    "duplicate_fraction", "replay", "counter_total",
    "ServeError", "ServeTimeout", "ServiceOverloaded",
    "QUEUED", "RUNNING", "DONE", "EXECUTED", "COALESCED", "CACHED",
    "DEFAULT_KERNELS",
]
