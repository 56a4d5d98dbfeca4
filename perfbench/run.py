"""The repository benchmark: one command, three workloads, one ledger.

    python3 perfbench/run.py --workload characterize --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve --seed 3 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout and treated as a library; nothing under
``src/`` is instrumented.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ledger.  The last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``;
a run whose correctness gate fails prints ``"correct": false`` with no
metrics and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, traces) lives under here.
SCRATCH = ROOT / ".perfbench"

#: name -> unit for every metric the benchmark emits.
END_TO_END = {
    "setup_s": "s",
    "suite_wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "miss_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
_KERNELS = ("gbv", "gbwt", "gssw", "gwfa-cr", "gwfa-lr", "pgsgd", "ssw", "tc")
PER_LAYER = {
    "data.fetch_calls": "count",
    "data.fetch_s": "s",
    "data.builds": "count",
    "data.hit_frac": "ratio",
    "data.memory_hit_frac": "ratio",
    "kernels.prepare_s": "s",
    "kernels.execute_s": "s",
    "kernels.execute_self_s": "s",
    "kernels.inputs": "count",
    **{f"kernels.execute_s.{k}": "s" for k in _KERNELS + ("tsu",)},
    "uarch.probe_s": "s",
    "uarch.probe_calls": "count",
    "uarch.events_per_call": "count",
    "uarch.summary_s": "s",
    "uarch.instructions": "count",
    **{f"uarch.probe_s.{k}": "s" for k in _KERNELS},
    "sim_minstr_per_s": "Minstr/s",
    "harness.engine_self_s": "s",
    "harness.plan_self_s": "s",
    "harness.store.loads": "count",
    "harness.store.load_s": "s",
    "harness.store.saves": "count",
    "harness.store.save_s": "s",
    "harness.executor.dispatch_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.executed": "count",
    "serve.coalesced": "count",
    "serve.cache_hits": "count",
    "serve.rejected": "count",
    "serve.dedup_frac": "ratio",
    "bench.generator_lag_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_s": "s",
    "bench.yardstick_ms": "ms",
    "bench.yardstick_drift": "ratio",
    "error_frac": "ratio",
}
WORKLOADS = ("characterize", "timing", "serve")


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit 1."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the root "
                 f"of a repository checkout")
    sys.path.insert(0, str(SRC))
    # Program defaults (dataset store, result cache, the executor's span
    # spools under the temporary directory) stay in the checkout.
    os.environ["REPRO_DATA_DIR"] = str(SCRATCH / "datasets")
    os.environ["REPRO_CACHE_DIR"] = str(SCRATCH / "cache")
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not "
                 f"from {SRC}")


def provenance(workload: str, seed: int, seconds: float, traced: bool,
               cfg) -> dict:
    import numpy

    import repro
    from repro.harness.runner import run_metadata
    import workloads
    from workloads import nproc

    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "nproc": nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "package_version": repro.__version__,
        "git_sha": run_metadata()["git_sha"],
        "host": platform.machine(),
    }
    if workload == "serve":
        stamp["serve"] = {
            "rate_per_s": cfg.rate, "miss_frac": workloads.MISS_FRAC,
            "burst_kernels": list(workloads.BURST_KERNELS),
            "burst": workloads.BURST,
            "scale": cfg.serve_scale, "workers": nproc(),
            "setup_reps": cfg.setup_reps,
            "served_passes": cfg.served_passes,
        }
    else:
        stamp["scale"] = cfg.scale
    return stamp


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 cfg, reference: dict | None = None) -> dict:
    """Run one workload; returns the result object (metrics with units)."""
    import gate
    from ledger import LedgerError
    from workloads import Workspace, run_batch, run_serve

    stamp = provenance(workload, seed, seconds, traced, cfg)
    ws = Workspace(SCRATCH / f"work-{os.getpid()}-{time.monotonic_ns()}")
    try:
        if workload == "serve":
            outcome = run_serve(seed, seconds, traced, cfg, ws)
        else:
            outcome = run_batch(workload, seed, seconds, traced, cfg, ws,
                                gate.load_reference()
                                if reference is None else reference)
    except (gate.GateError, LedgerError) as error:
        print(f"correctness gate failed: {error}")
        print("provenance " + json.dumps({**stamp, "valid": False}))
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        ws.close()
    for note in outcome.notes:
        print(note)
    print("provenance " + json.dumps({**stamp, **outcome.provenance,
                                      "valid": outcome.valid}))
    if not outcome.valid:
        print("invalid run: the generator fell behind its schedule")
        return {"correct": False, "attempted": outcome.attempted,
                "failed": outcome.failed, "metrics": {}}
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit}
                    for name, unit in units.items()},
    }


def self_test() -> int:
    """Tiny-scale run of every workload, traced and not: every metric
    named in BENCHMARK.json is emitted with its unit, the gate rejects a
    perturbed reference and report, and the ledger check rejects a
    ledger that does not match its measured wall."""
    import shutil

    import gate
    from repro.data import ArtifactStore, use_store
    from repro.harness import runner
    from workloads import TINY

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads_declared = {w["name"] for w in spec["workloads"]}
    assert workloads_declared == set(WORKLOADS), workloads_declared
    for workload in WORKLOADS:
        for traced in (False, True):
            result = run_workload(workload, 0, 2.0, traced, TINY,
                                  reference={})
            assert result["correct"], (workload, traced)
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            assert emitted == declared[traced], (
                workload, traced,
                set(emitted) ^ set(declared[traced]))
            print(f"self-test: {workload} trace={int(traced)} emits "
                  f"{len(emitted)} metrics with their units")

    # The gate must reject a perturbed reference and a perturbed report.
    store_dir = SCRATCH / f"selftest-{os.getpid()}"
    try:
        with use_store(ArtifactStore(store_dir)):
            reports = runner.run_suite(("tc", "gbwt"), studies=("timing",),
                                       scale=TINY.scale, seed=0)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    digests = gate.pass_digests(reports)
    reference = {"scale": TINY.scale, "timing": dict(digests)}
    gate.check_reference(reference, "timing", TINY.scale, digests)
    perturbed = {**reference, "timing": {**digests, "tc": "0" * 16}}
    try:
        gate.check_reference(perturbed, "timing", TINY.scale, digests)
    except gate.GateError:
        pass
    else:
        raise AssertionError("gate accepted a perturbed reference")
    reports["gbwt"].work = {**reports["gbwt"].work, "perturbed": 1.0}
    try:
        gate.check_identical([digests, gate.pass_digests(reports)])
    except gate.GateError:
        pass
    else:
        raise AssertionError("gate accepted a perturbed report")
    print("self-test: the gate rejects a perturbed reference and report")

    # The ledger check must reject records that do not match the wall
    # measured around them, and kernel time that no wrapper saw.
    from ledger import LedgerError, check_kernel_cover, check_ledger

    plan = {"name": "harness.plan", "id": 0, "parent": -1, "dur": 1.0,
            "pid": 1}
    run = {"name": "kernels.run", "id": 1, "parent": 0, "dur": 0.5,
           "pid": 1, "attrs": {"kernel": "tc", "probe_s": 0.1,
                               "probe_calls": 1, "inputs": 1}}
    check_ledger([plan, run], wall=1.005)
    rejected = {
        "spans longer than the measured wall": ([plan, run], 0.9),
        "a tenth of the wall in no layer": ([plan, run], 1.1),
        "a negative self time": (
            [plan, {**run, "attrs": {**run["attrs"], "probe_s": 0.75}}], 1.0),
    }
    for what, (records, wall) in rejected.items():
        try:
            check_ledger(records, wall)
        except LedgerError:
            continue
        raise AssertionError(f"ledger check accepted {what}")
    try:
        check_kernel_cover([], reports)
    except LedgerError:
        pass
    else:
        raise AssertionError("ledger check accepted kernel time outside "
                             "its wrappers")
    print("self-test: the ledger check rejects spans that miss the measured "
          "wall and kernel time outside its wrappers")
    print("self-test ok")
    return 0


def write_reference() -> int:
    """Record the digests of one pass of each batch workload."""
    import shutil

    import gate
    from repro.data import ArtifactStore, use_store
    from repro.harness import runner
    from workloads import (ALL_KERNELS, CHARACTERIZE_STUDIES, CPU_KERNELS,
                           DATASET_SEED, FULL)

    store_dir = SCRATCH / f"reference-{os.getpid()}"
    try:
        with use_store(ArtifactStore(store_dir)):
            reference = {
                "scale": FULL.scale,
                "dataset_seed": DATASET_SEED,
                "characterize": gate.pass_digests(runner.run_suite(
                    CPU_KERNELS, studies=CHARACTERIZE_STUDIES,
                    scale=FULL.scale, seed=DATASET_SEED)),
                "timing": gate.pass_digests(runner.run_suite(
                    ALL_KERNELS, studies=("timing",), scale=FULL.scale,
                    seed=DATASET_SEED)),
            }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                              sort_keys=True) + "\n")
    print(f"reference written to {gate.REFERENCE_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    bootstrap()
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import FULL

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), FULL)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
