"""Trace-ingestion throughput: scalar event calls vs the batched API.

The µarch tracing pipeline's cost is dominated by per-event Python
dispatch: every load walks the cache hierarchy, every branch updates the
gshare predictor.  The batched ``*_block`` entry points vectorize those
inner loops, and this bench measures the resulting events/second on the
streams the suite's kernels actually emit — sequential, strided, and
random loads; biased and random branch outcomes; and a mixed
load/store/branch/ALU program.

Each stream runs twice on fresh :class:`TraceMachine` instances — once
through scalar calls, once through the batch API — and the two resulting
:class:`MachineSummary` objects must be identical (the differential
guarantee the hypothesis suite enforces per-operation).

On top of the ingestion microbench, this bench times the simulated
instrument alone: the probe-call streams of the ``characterize``
workload's 8 CPU kernels are recorded once, untimed, on inputs from the
default artifact store, and only their replay into fresh machines is
timed (each replay must reproduce the live run's summary).  Each run
appends one ``kind: "measured"`` entry to ``BENCH_trace_throughput.json``
at the repo root through :func:`repro.obs.baseline.append_entry`.  The
regression sentinel (``repro obs check``) judges its overall speedup
and the replay's exact call and instruction counts against earlier
entries; the replay seconds are recorded as data.

Runs under plain pytest (no pytest-benchmark needed) or standalone:
``PYTHONPATH=src python benchmarks/bench_trace_throughput.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels import create_kernel
from repro.obs.baseline import append_entry
from repro.uarch.events import CallLog, OpClass
from repro.uarch.machine import TraceMachine

#: The ``characterize`` workload's CPU kernels and scale (dataset seed
#: 0), whose recorded streams time the instrument.
REPLAY_KERNELS = ("gbv", "gbwt", "gssw", "gwfa-cr", "gwfa-lr", "pgsgd",
                  "ssw", "tc")
REPLAY_SCALE = 0.25

#: Replays per kernel; the fastest counts.
REPLAY_REPEATS = 3

#: Events per stream.  Large enough that per-call overhead amortizes on
#: the batched side and the scalar loop dominates timing noise.
N_EVENTS = 200_000

#: Batch size for the flushes — the order of magnitude the converted
#: kernels produce per wavefront / column / iteration barrier.
BLOCK = 16_384

#: Minimum acceptable overall speedup (total scalar time / total batched
#: time across all streams).  The issue's tentpole target.
MIN_SPEEDUP = 5.0

_BASE = 1 << 22


def _streams(seed: int = 7):
    """Named event streams: (kind, payload) pairs."""
    rng = np.random.default_rng(seed)
    n = N_EVENTS
    return [
        ("sequential_loads", "load",
         _BASE + 8 * np.arange(n, dtype=np.int64)),
        ("strided_loads", "load",
         _BASE + 256 * np.arange(n, dtype=np.int64)),
        ("random_loads", "load",
         _BASE + rng.integers(0, 1 << 26, size=n, dtype=np.int64)),
        ("biased_branches", "branch",
         rng.random(n) < 0.95),
        ("random_branches", "branch",
         rng.random(n) < 0.5),
        ("mixed", "mixed",
         (_BASE + rng.integers(0, 1 << 24, size=n, dtype=np.int64),
          rng.random(n) < 0.8)),
    ]


def _run_scalar(kind, payload) -> TraceMachine:
    machine = TraceMachine()
    if kind == "load":
        for address in payload.tolist():
            machine.load(address, 8)
    elif kind == "branch":
        for taken in payload.tolist():
            machine.branch(17, taken)
    else:
        # Same chunked event order as the batched side (the kernels'
        # accumulate-then-flush pattern), issued one event at a time.
        addresses, outcomes = payload
        for lo in range(0, len(addresses), BLOCK):
            for address in addresses[lo:lo + BLOCK].tolist():
                machine.load(address, 8)
            for address in (addresses[lo:lo + BLOCK] ^ 4096).tolist():
                machine.store(address, 8)
            for taken in outcomes[lo:lo + BLOCK].tolist():
                machine.branch(17, taken)
                machine.alu(OpClass.SCALAR_ALU, 4)
    return machine


def _run_batched(kind, payload) -> TraceMachine:
    machine = TraceMachine()
    if kind == "load":
        for lo in range(0, len(payload), BLOCK):
            machine.load_block(payload[lo:lo + BLOCK], 8)
    elif kind == "branch":
        for lo in range(0, len(payload), BLOCK):
            machine.branch_trace(17, payload[lo:lo + BLOCK])
    else:
        addresses, outcomes = payload
        for lo in range(0, len(addresses), BLOCK):
            chunk = addresses[lo:lo + BLOCK]
            machine.load_block(chunk, 8)
            machine.store_block(chunk ^ 4096, 8)
            machine.branch_trace(17, outcomes[lo:lo + BLOCK])
            machine.alu_bulk(OpClass.SCALAR_ALU, 4 * len(chunk))
    return machine


def _events_of(kind) -> int:
    return 4 * N_EVENTS if kind == "mixed" else N_EVENTS


def run_experiment() -> dict:
    streams = []
    scalar_total = 0.0
    batched_total = 0.0
    for name, kind, payload in _streams():
        t0 = time.perf_counter()
        scalar_machine = _run_scalar(kind, payload)
        scalar_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched_machine = _run_batched(kind, payload)
        batched_seconds = time.perf_counter() - t0
        assert scalar_machine.summary() == batched_machine.summary(), \
            f"stream {name}: batched summary diverges from scalar"
        events = _events_of(kind)
        scalar_total += scalar_seconds
        batched_total += batched_seconds
        streams.append({
            "stream": name,
            "events": events,
            "scalar_seconds": round(scalar_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "scalar_events_per_sec": round(events / scalar_seconds),
            "batched_events_per_sec": round(events / batched_seconds),
            "speedup": round(scalar_seconds / batched_seconds, 2),
        })
    return {
        "n_events_per_stream": N_EVENTS,
        "block_size": BLOCK,
        "streams": streams,
        "overall_speedup": round(scalar_total / batched_total, 2),
        "min_required_speedup": MIN_SPEEDUP,
    }


def _replay(log: CallLog) -> tuple[float, object]:
    """Seconds to replay *log* into a fresh machine, and its summary."""
    machine = TraceMachine()
    t0 = time.perf_counter()
    log.replay(machine)
    summary = machine.summary()
    return time.perf_counter() - t0, summary


def run_instrument_replay() -> dict:
    """Time the simulated instrument alone on fixed input: record each
    kernel's probe calls once (untimed, with inputs from the default
    artifact store, warm after the first run), then replay them into
    fresh machines; every replay must equal the live run's summary."""
    kernel_seconds: dict[str, float] = {}
    calls_total = instructions_total = 0
    for name in REPLAY_KERNELS:
        kernel = create_kernel(name, scale=REPLAY_SCALE)
        kernel.ensure_prepared()
        log = CallLog(TraceMachine())
        kernel.run(probe=log)
        live = log.target.summary()
        best = float("inf")
        for _ in range(REPLAY_REPEATS):
            seconds, summary = _replay(log)
            assert summary == live, f"{name}: replay != live trace"
            best = min(best, seconds)
        kernel_seconds[name] = round(best, 4)
        calls_total += len(log.calls)
        instructions_total += live.instructions
    return {
        "instrument_replay_seconds": round(sum(kernel_seconds.values()), 4),
        "instrument_replay_calls": calls_total,
        "replay_instructions": instructions_total,
        "instrument_replay_kernel_seconds": kernel_seconds,
    }


def _emit(results: dict) -> None:
    header = f"{'stream':<20}{'scalar ev/s':>14}{'batched ev/s':>14}{'speedup':>9}"
    print()
    print(header)
    for row in results["streams"]:
        print(f"{row['stream']:<20}{row['scalar_events_per_sec']:>14,}"
              f"{row['batched_events_per_sec']:>14,}{row['speedup']:>8.1f}x")
    print(f"overall speedup: {results['overall_speedup']:.1f}x "
          f"(required >= {MIN_SPEEDUP:.0f}x)")
    print(f"instrument replay ({results['instrument_replay_calls']:,} "
          f"recorded probe calls, "
          f"{results['replay_instructions']:,} instructions): "
          f"{results['instrument_replay_seconds']:.3f}s")
    for kernel, seconds in results["instrument_replay_kernel_seconds"].items():
        print(f"  {kernel:<10}{seconds:>8.3f}s")


def test_trace_throughput():
    results = run_experiment()
    results.update(run_instrument_replay())
    _emit(results)
    assert results["overall_speedup"] >= MIN_SPEEDUP, (
        f"batched ingestion only {results['overall_speedup']:.1f}x faster; "
        f"need >= {MIN_SPEEDUP:.0f}x"
    )
    prior = append_entry("trace_throughput", results, kind="measured")
    print(f"trajectory: BENCH_trace_throughput.json ({len(prior) + 1} entries)")


if __name__ == "__main__":
    test_trace_throughput()
