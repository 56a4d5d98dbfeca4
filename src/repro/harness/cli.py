"""Command-line entry point — the suite's ``mainRun.py``.

Examples::

    python -m repro list
    python -m repro run gssw gbwt --studies timing topdown
    python -m repro run tc --studies timing,validate --jobs 2
    python -m repro run tsu --studies gpu
    python -m repro run --kernels gssw gbwt --scale 0.5 --out reports.json
    python -m repro run --machine A --reuse
    python -m repro run tc gcsa --trace-out suite.trace.json
    python -m repro run gssw gbwt --scenario divergent
    python -m repro trace tc --trace-out tc.trace.json
    python -m repro validate
    python -m repro data build --scenario default divergent
    python -m repro data list
    python -m repro data gc
    python -m repro serve submit tsu tsu gbwt --scale 0.25
    python -m repro serve bench --requests 500
    python -m repro serve up --kernels tsu --telemetry-port 8123
    python -m repro serve status --url http://127.0.0.1:8123
    python -m repro serve trace tsu --scale 0.1 --out tsu.trace.json
    python -m repro obs export --reports reports.json
    python -m repro obs check
    python -m repro cache list
    python -m repro cache gc --max-bytes 50000000
    python -m repro sweep expand --manifest matrix
    python -m repro sweep run --manifest matrix --kernels tsu,gbwt --scale 0.25
    python -m repro sweep report --dir benchmarks/results/sweep
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext as _null_context
from pathlib import Path
from typing import Sequence

from repro.analysis.report import render_table
from repro.data import (
    default_store,
    ensure_corpus,
    scenario_names,
    scenario_spec,
)
from repro.errors import ReproError
from repro.harness.runner import run_kernel_studies, run_suite, save_reports
from repro.harness.store import ResultStore
from repro.harness.studies import study_names
from repro.kernels import (
    BACKENDS,
    SUITE_KERNELS,
    create_kernel,
    kernel_names,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.spans import (
    Tracer,
    merge_records,
    render_tree,
    write_chrome_trace,
)
from repro.uarch.cache import MACHINE_A, MACHINE_B

#: ``--machine`` choices (the paper's Table 5 machines).
MACHINES = {"A": MACHINE_A, "B": MACHINE_B}


def _name_list(value: str) -> list[str]:
    """One token that may be a comma-joined list of names."""
    return [item for item in value.split(",") if item]


def _study_list(value: str) -> list[str]:
    """One ``--studies`` token: a study name or a comma-joined list."""
    studies = [item for item in value.split(",") if item]
    known = study_names()
    for study in studies:
        if study not in known:
            raise argparse.ArgumentTypeError(
                f"invalid study {study!r} (choose from {', '.join(known)})"
            )
    return studies


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PangenomicsBench reproduction: run and characterize kernels",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered kernels")

    run = commands.add_parser("run", help="run kernels under selected studies")
    run.add_argument(
        "kernels", nargs="*", metavar="KERNEL",
        help="kernel names (default: the eight suite kernels)",
    )
    run.add_argument(
        "--kernels", dest="kernels_opt", nargs="+", default=None,
        metavar="KERNEL", help="kernel names (same as the positionals)",
    )
    run.add_argument(
        "--studies", nargs="+", default=[["timing"]], type=_study_list,
        metavar="STUDY",
        help="studies to run, space- or comma-separated "
             f"(default: timing; choices: {', '.join(study_names())})",
    )
    run.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (default 1.0)")
    run.add_argument("--seed", type=int, default=0, help="dataset seed")
    run.add_argument(
        "--scenario", choices=scenario_names(), default="default",
        help="named dataset scenario every kernel prepares on "
             "(default: default)",
    )
    run.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend to run the kernels on (default: each "
             "kernel's own default; a kernel that does not implement "
             "the backend fails at compile time)",
    )
    run.add_argument(
        "--machine", choices=sorted(MACHINES), default="B",
        help="cache-hierarchy configuration for the trace studies "
             "(paper Table 5; default: B, the kernel-analysis machine)",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: serial, deterministic; N>1 "
             "runs kernels in parallel with per-kernel failure isolation)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-kernel time limit (enforced when --jobs > 1)",
    )
    run.add_argument(
        "--reuse", action="store_true",
        help="serve cache hits from benchmarks/results/cache/ and write "
             "fresh reports back",
    )
    run.add_argument(
        "--stream", action="store_true",
        help="bounded-memory mode: derive kernel inputs in chunks "
             "through the artifact store instead of materializing them "
             "(identical reports; use at large --scale)",
    )
    run.add_argument("--out", default=None,
                     help="write JSON reports to this path")
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="trace the run and write a Chrome trace-event JSON file "
             "(open in https://ui.perfetto.dev)",
    )

    tracecmd = commands.add_parser(
        "trace",
        help="trace one kernel: span tree, per-phase top-down, Chrome trace",
    )
    tracecmd.add_argument("kernel", metavar="KERNEL", help="kernel to trace")
    tracecmd.add_argument("--scale", type=float, default=1.0,
                          help="dataset scale factor (default 1.0)")
    tracecmd.add_argument("--seed", type=int, default=0, help="dataset seed")
    tracecmd.add_argument(
        "--scenario", choices=scenario_names(), default="default",
        help="named dataset scenario (default: default)",
    )
    tracecmd.add_argument(
        "--machine", choices=sorted(MACHINES), default="B",
        help="cache-hierarchy configuration (default B)",
    )
    tracecmd.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write the spans as a Chrome trace-event JSON file",
    )

    validate = commands.add_parser(
        "validate", help="run every kernel's oracle self-check"
    )
    validate.add_argument("--kernels", nargs="+", default=None)
    validate.add_argument("--scale", type=float, default=0.5)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--scenario", choices=scenario_names(), default="default",
        help="named dataset scenario (default: default)",
    )

    data = commands.add_parser(
        "data", help="inspect and manage the shared dataset store"
    )
    data_commands = data.add_subparsers(dest="data_command", required=True)
    data_list = data_commands.add_parser(
        "list", help="list corpora in the artifact store"
    )
    del data_list  # no options yet
    data_build = data_commands.add_parser(
        "build", help="pre-build (or warm-load) scenario corpora"
    )
    data_build.add_argument(
        "--scenario", nargs="+", choices=scenario_names(),
        default=["default"], metavar="SCENARIO",
        help="scenarios to build (default: default)",
    )
    data_build.add_argument("--scale", type=float, default=1.0,
                            help="dataset scale factor (default 1.0)")
    data_build.add_argument("--seed", type=int, default=0,
                            help="dataset seed")
    data_gc = data_commands.add_parser(
        "gc", help="remove stale artifacts (different generator version)"
    )
    data_gc.add_argument(
        "--all", action="store_true",
        help="remove every artifact, current ones included",
    )

    serve = commands.add_parser(
        "serve",
        help="benchmark-as-a-service: submit requests / run a load replay",
    )
    serve_commands = serve.add_subparsers(dest="serve_command", required=True)
    submit = serve_commands.add_parser(
        "submit",
        help="start a service, submit requests (duplicates coalesce), "
             "wait, and print per-request origins",
    )
    submit.add_argument(
        "kernels", nargs="+", metavar="KERNEL",
        help="one request per name; repeat a name to submit duplicates",
    )
    submit.add_argument(
        "--studies", nargs="+", default=[["timing"]], type=_study_list,
        metavar="STUDY", help="studies per request (default: timing)",
    )
    submit.add_argument("--scale", type=float, default=1.0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--scenario", choices=scenario_names(), default="default",
    )
    submit.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend for every request (default: each "
             "kernel's own default); joins the job digest, so the same "
             "kernel on two backends neither coalesces nor shares a "
             "cache entry",
    )
    submit.add_argument("--machine", choices=sorted(MACHINES), default="B")
    submit.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="service worker threads (default 2)",
    )
    submit.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission-control high-water mark (default 64)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job limit (enforced under process isolation)",
    )
    submit.add_argument(
        "--isolation", choices=("process", "inline"), default="process",
        help="run each execution in an executor worker process "
             "(default) or inline on the service worker thread",
    )
    submit.add_argument(
        "--no-reuse", action="store_true",
        help="skip the shared result cache (still coalesces in-flight "
             "duplicates)",
    )
    submit.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the service metrics dump as JSON",
    )
    submit.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="expose /metrics,/healthz,/readyz on 127.0.0.1:PORT for "
             "the duration of the run (0 = ephemeral)",
    )

    serve_bench = serve_commands.add_parser(
        "bench",
        help="replay a seeded mixed request trace and report p50/p99 "
             "latency, hit rate and coalesce rate",
    )
    serve_bench.add_argument("--requests", type=int, default=500)
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--scale", type=float, default=0.05)
    serve_bench.add_argument("--workers", type=int, default=4)
    serve_bench.add_argument(
        "--queue-limit", type=int, default=32,
        help="admission-control high-water mark (default 32; small "
             "enough that backpressure is exercised)",
    )
    serve_bench.add_argument(
        "--isolation", choices=("process", "inline"), default="process",
    )
    serve_bench.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root for the replay (default: a fresh "
             "temporary directory, so rates are measured from cold)",
    )
    serve_bench.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the service metrics dump as JSON",
    )
    serve_bench.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="expose /metrics,/healthz,/readyz on 127.0.0.1:PORT during "
             "the replay (0 = ephemeral)",
    )

    serve_up = serve_commands.add_parser(
        "up",
        help="hold a service up (with its telemetry endpoint) for a "
             "fixed duration — the CI smoke / manual scrape target",
    )
    serve_up.add_argument(
        "--kernels", nargs="*", default=[], metavar="KERNEL",
        help="requests to submit (and wait for) once the service is up",
    )
    serve_up.add_argument("--scale", type=float, default=0.05)
    serve_up.add_argument("--seed", type=int, default=0)
    serve_up.add_argument(
        "--scenario", choices=scenario_names(), default="default",
    )
    serve_up.add_argument("--machine", choices=sorted(MACHINES),
                          default="B")
    serve_up.add_argument("--workers", type=int, default=2)
    serve_up.add_argument(
        "--isolation", choices=("process", "inline"), default="process",
    )
    serve_up.add_argument(
        "--telemetry-port", type=int, default=0, metavar="PORT",
        help="telemetry endpoint port (default 0: ephemeral, printed)",
    )
    serve_up.add_argument(
        "--duration", type=float, default=60.0, metavar="SECONDS",
        help="how long to keep serving after submissions complete "
             "(default 60; Ctrl-C exits early)",
    )
    serve_up.add_argument(
        "--no-reuse", action="store_true",
        help="skip the shared result cache",
    )

    serve_status = serve_commands.add_parser(
        "status",
        help="query a running service's telemetry endpoint "
             "(/healthz, /readyz, optionally /metrics)",
    )
    serve_status.add_argument(
        "--url", required=True, metavar="URL",
        help="telemetry base URL, e.g. http://127.0.0.1:8123",
    )
    serve_status.add_argument(
        "--metrics", action="store_true",
        help="also print the /metrics text exposition",
    )

    serve_trace = serve_commands.add_parser(
        "trace",
        help="submit one request through a fresh service and emit its "
             "stitched cross-process Chrome trace",
    )
    serve_trace.add_argument("kernel", metavar="KERNEL")
    serve_trace.add_argument("--scale", type=float, default=0.25)
    serve_trace.add_argument("--seed", type=int, default=0)
    serve_trace.add_argument(
        "--scenario", choices=scenario_names(), default="default",
    )
    serve_trace.add_argument("--machine", choices=sorted(MACHINES),
                             default="B")
    serve_trace.add_argument(
        "--studies", nargs="+", default=[["timing"]], type=_study_list,
        metavar="STUDY", help="studies for the request (default: timing)",
    )
    serve_trace.add_argument(
        "--isolation", choices=("process", "inline"), default="process",
        help="process (default) demonstrates cross-process stitching",
    )
    serve_trace.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
    )
    serve_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="Chrome trace output path (default: <kernel>.trace.json)",
    )

    obs = commands.add_parser(
        "obs",
        help="telemetry plane: metrics exposition and the "
             "perf-regression sentinel",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_export = obs_commands.add_parser(
        "export",
        help="render metrics (from saved reports, or the current "
             "process) as Prometheus text or a JSON snapshot",
    )
    obs_export.add_argument(
        "--reports", nargs="+", default=[], metavar="PATH",
        help="saved reports files (repro run --out) whose per-kernel "
             "metrics are merged into the export",
    )
    obs_export.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="Prometheus text exposition (default) or JSON snapshot",
    )
    obs_export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write to this path instead of stdout",
    )
    obs_check = obs_commands.add_parser(
        "check",
        help="the perf-regression sentinel: classify the newest "
             "BENCH_*.json entries against median±MAD baselines "
             "(exit 1 on regression)",
    )
    obs_check.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory holding the BENCH_*.json trajectories "
             "(default: the repo root)",
    )
    obs_check.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="trailing history entries per baseline (default 8)",
    )
    obs_check.add_argument(
        "--candidate", default=None, metavar="REPORTS",
        help="fresh reports file to compare against --baseline "
             "(per-kernel wall seconds and IPC)",
    )
    obs_check.add_argument(
        "--baseline", default=None, metavar="REPORTS",
        help="baseline reports file for --candidate",
    )
    obs_check.add_argument(
        "--out", default="obs_check.json", metavar="PATH",
        help="machine-readable verdict path (default: obs_check.json)",
    )

    cache = commands.add_parser(
        "cache", help="inspect and manage the sharded result store"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_commands.add_parser(
        "list", help="list cached reports (most recent first)"
    )
    cache_gc = cache_commands.add_parser(
        "gc",
        help="drop unservable entries and enforce a byte/entry budget",
    )
    cache_gc.add_argument(
        "--all", action="store_true",
        help="remove every cached report, current ones included",
    )
    cache_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="evict least-recently-used entries past this byte budget",
    )
    cache_gc.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="evict least-recently-used entries past this entry count",
    )

    sweep = commands.add_parser(
        "sweep",
        help="run the scenario matrix: expand a manifest, sweep a "
             "kernel grid over it, aggregate leaderboards",
    )
    sweep_commands = sweep.add_subparsers(dest="sweep_command",
                                          required=True)
    sweep_expand = sweep_commands.add_parser(
        "expand",
        help="expand a manifest and print its cells (no kernels run)",
    )
    sweep_expand.add_argument(
        "--manifest", default="matrix", metavar="NAME_OR_PATH",
        help="manifest name under benchmarks/manifests/ or a TOML path "
             "(default: matrix)",
    )
    sweep_expand.add_argument(
        "--backend", dest="backends", nargs="+", default=None,
        type=_name_list, metavar="BACKEND",
        help="show the grid multiplier a backend axis would add "
             "(space- or comma-separated backend names)",
    )
    sweep_run = sweep_commands.add_parser(
        "run", help="run a kernel × cell × scale grid and save sweep.json"
    )
    sweep_run.add_argument(
        "--manifest", default="matrix", metavar="NAME_OR_PATH",
        help="manifest to sweep (default: matrix)",
    )
    sweep_run.add_argument(
        "--kernels", nargs="+", required=True, type=_name_list,
        metavar="KERNEL",
        help="kernels to grid over, space- or comma-separated",
    )
    sweep_run.add_argument(
        "--cells", nargs="+", default=None, type=_name_list,
        metavar="CELL", help="restrict to these manifest cells",
    )
    sweep_run.add_argument(
        "--studies", nargs="+", default=[["timing"]], type=_study_list,
        metavar="STUDY",
        help="studies per grid point (default: timing; paper-fidelity "
             "cells get their gate studies added automatically)",
    )
    sweep_run.add_argument(
        "--scales", nargs="+", type=float, default=[1.0], metavar="SCALE",
        help="dataset scale factors (default: 1.0)",
    )
    sweep_run.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="SEED",
        help="dataset seeds (default: 0)",
    )
    sweep_run.add_argument(
        "--backend", dest="backends", nargs="+", default=None,
        type=_name_list, metavar="BACKEND",
        help="execution backends to grid over, space- or comma-"
             "separated (default: each kernel's own default backend); "
             "every kernel must support every listed backend",
    )
    sweep_run.add_argument("--machine", choices=sorted(MACHINES),
                           default="B")
    sweep_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="executor worker processes (default 1)",
    )
    sweep_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job time limit (enforced when --jobs > 1)",
    )
    sweep_run.add_argument(
        "--reuse", action="store_true",
        help="serve grid points from the shared result cache and write "
             "fresh reports back",
    )
    sweep_run.add_argument(
        "--dir", default="benchmarks/results/sweep", metavar="DIR",
        help="output directory for sweep.json "
             "(default: benchmarks/results/sweep)",
    )
    sweep_report = sweep_commands.add_parser(
        "report",
        help="aggregate a saved sweep into summary + leaderboard tables",
    )
    sweep_report.add_argument(
        "--dir", default="benchmarks/results/sweep", metavar="DIR",
        help="directory holding sweep.json; tables are written next to "
             "it (default: benchmarks/results/sweep)",
    )
    return parser


def _command_list() -> int:
    rows = []
    for name in kernel_names():
        kernel = create_kernel(name)
        rows.append([name, kernel.parent_tool, kernel.input_type])
    print(render_table(["kernel", "parent tool", "input type"], rows,
                       title="Registered kernels"))
    return 0


#: Series prefix the backend-fallback counter exports under (labels
#: follow in ``{key=value,...}`` form, alphabetical by key).
_FALLBACK_PREFIX = "kernel.backend_fallback{"


def _fallback_warnings(reports: dict) -> list[str]:
    """One warning line per backend downgrade recorded in *reports*.

    A component that cannot honor the requested backend (GSSW's striped
    core rejects scoring with ``gap_open + gap_extend < gap_extend``)
    degrades to a working one and records a ``kernel.backend_fallback``
    counter rather than failing the run; surface that here so the
    degradation is never silent at the CLI.
    """
    lines = []
    for name, report in reports.items():
        for key, count in (report.metrics.get("counters") or {}).items():
            if not key.startswith(_FALLBACK_PREFIX):
                continue
            labels = dict(
                part.split("=", 1)
                for part in key[len(_FALLBACK_PREFIX):-1].split(",")
                if "=" in part
            )
            lines.append(
                f"warning: {name} ({labels.get('component', '?')}): "
                f"backend {labels.get('requested', '?')!r} fell back to "
                f"{labels.get('actual', '?')!r} "
                f"[{labels.get('reason', 'unspecified')}, x{int(count)}]"
            )
    return lines


def _command_run(args: argparse.Namespace) -> int:
    kernels = list(args.kernels) + list(args.kernels_opt or [])
    if not kernels:
        kernels = list(SUITE_KERNELS)
    studies = [study for token in args.studies for study in token]
    tracer = Tracer() if args.trace_out else None
    try:
        with trace.use(tracer) if tracer else _null_context():
            reports = run_suite(
                tuple(kernels), studies=tuple(studies),
                scale=args.scale, seed=args.seed,
                cache_config=MACHINES[args.machine],
                jobs=args.jobs, timeout=args.timeout, reuse=args.reuse,
                scenario=args.scenario, stream=args.stream,
                backend=args.backend,
            )
    except ReproError as error:
        # Compile-time rejections (unknown kernel, unsupported backend)
        # deserve a one-liner, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    if tracer is not None:
        # Fold in spans shipped back from worker processes (parallel
        # runs); merge_records drops the parent's own duplicates.
        records = merge_records(
            tracer.records(),
            *(report.spans for report in reports.values()),
        )
        write_chrome_trace(records, args.trace_out)
        print(f"trace written to {args.trace_out}")
    rows = []
    for name, report in reports.items():
        rows.append([
            name,
            report.backend or "-",
            report.inputs_processed,
            f"{report.wall_seconds:.3f}",
            f"{report.ipc:.2f}" if report.ipc else "-",
            (max(report.topdown, key=report.topdown.get)
             if report.topdown else "-"),
            "ok" if report.validated else "-",
            report.error or "-",
        ])
    print(render_table(
        ["kernel", "backend", "#inputs", "seconds", "IPC", "top slot",
         "validated", "error"],
        rows,
        title=(f"Suite run (scale={args.scale}, machine={args.machine}, "
               f"scenario={args.scenario}, studies={studies})"),
    ))
    for warning in _fallback_warnings(reports):
        print(warning, file=sys.stderr)
    if args.out:
        save_reports(reports, args.out)
        print(f"\nreports written to {args.out}")
    failures = [name for name, report in reports.items() if report.error]
    if failures:
        print(f"\n{len(failures)} kernel(s) failed: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


#: Studies the ``trace`` command always runs: timing for wall clock and
#: the three trace studies so the PhaseAttributor has counters to split.
TRACE_STUDIES = ("timing", "topdown", "cache", "instmix")


def _command_trace(args: argparse.Namespace) -> int:
    tracer = Tracer()
    registry = obs_metrics.MetricsRegistry()
    with trace.use(tracer), obs_metrics.use(registry):
        report = run_kernel_studies(
            args.kernel,
            studies=TRACE_STUDIES,
            scale=args.scale,
            seed=args.seed,
            cache_config=MACHINES[args.machine],
            scenario=args.scenario,
        )
    records = tracer.records()
    print(render_tree(
        records,
        title=(f"Span tree: {args.kernel} (scale={args.scale}, "
               f"machine={args.machine})"),
    ))
    if report.phases:
        rows = []
        for name, phase in report.phases.items():
            topdown = phase["topdown"]
            rows.append([
                name,
                phase["instructions"],
                f"{phase['ipc']:.2f}",
                f"{topdown['retiring']:.3f}",
                f"{topdown['frontend_bound']:.3f}",
                f"{topdown['bad_speculation']:.3f}",
                f"{topdown['core_bound']:.3f}",
                f"{topdown['memory_bound']:.3f}",
            ])
        print()
        print(render_table(
            ["phase", "instructions", "IPC", "retiring", "frontend",
             "bad spec", "core", "memory"],
            rows,
            title="Per-phase top-down (exclusive attribution)",
        ))
    if args.trace_out:
        write_chrome_trace(records, args.trace_out)
        print(f"\ntrace written to {args.trace_out} "
              "(open in https://ui.perfetto.dev)")
    return 1 if report.error else 0


def _command_validate(args: argparse.Namespace) -> int:
    names = args.kernels or kernel_names()
    failures = 0
    for name in names:
        kernel = create_kernel(name, scale=args.scale, seed=args.seed,
                               scenario=args.scenario)
        try:
            kernel.validate()
            print(f"{name:10s} ok")
        except Exception as error:  # noqa: BLE001 — report and continue
            failures += 1
            print(f"{name:10s} FAILED: {error}")
    return 1 if failures else 0


def _command_data(args: argparse.Namespace) -> int:
    store = default_store()
    if args.data_command == "list":
        entries = store.entries()
        if not entries:
            print(f"no datasets under {store.root}")
            return 0
        rows = []
        for meta in entries:
            spec = meta.get("spec", {})
            rows.append([
                spec.get("scenario", "?"),
                spec.get("scale", "?"),
                spec.get("seed", "?"),
                meta.get("digest", "?"),
                meta.get("derived_count", 0),
                f"{meta.get('disk_bytes', 0) / 1024:.0f} KiB",
            ])
        print(render_table(
            ["scenario", "scale", "seed", "digest", "derived", "size"],
            rows,
            title=f"Dataset store: {store.root}",
        ))
        return 0
    if args.data_command == "build":
        for name in args.scenario:
            spec = scenario_spec(name, scale=args.scale, seed=args.seed)
            _data, origin = ensure_corpus(spec, store)
            print(f"{name:16s} {spec.digest()}  ({origin})")
        return 0
    if args.data_command == "gc":
        removed, freed = store.gc(everything=args.all)
        print(f"removed {removed} dataset(s), freed {freed / 1024:.0f} KiB")
        return 0
    raise AssertionError(f"unhandled data command {args.data_command!r}")


def _service_summary(service) -> list[str]:
    """Human-readable one-liners from a service's metrics registry."""
    from repro.obs.exposition import parse_series
    from repro.obs.metrics import quantile_estimate
    from repro.serve.service import counter_total

    exported = service.metrics.as_dict()
    lines = [
        "submitted={:.0f} executed={:.0f} coalesced={:.0f} "
        "cache_hits={:.0f} rejected={:.0f}".format(
            counter_total(exported, "serve.submitted"),
            counter_total(exported, "serve.executed"),
            counter_total(exported, "serve.coalesced"),
            counter_total(exported, "serve.cache_hits"),
            counter_total(exported, "serve.rejected"),
        )
    ]
    for key, payload in sorted(exported.get("histograms", {}).items()):
        if key.startswith("serve.latency_seconds") and payload["count"]:
            _, labels = parse_series(key)
            origin = labels.get("origin", "all")
            p50, p95, p99 = (quantile_estimate(payload, q)
                             for q in (0.50, 0.95, 0.99))
            lines.append(
                f"latency[{origin}]: n={payload['count']} "
                f"p50={p50 * 1e3:.2f}ms p95={p95 * 1e3:.2f}ms "
                f"p99={p99 * 1e3:.2f}ms"
            )
    return lines


def _command_serve_submit(args: argparse.Namespace) -> int:
    from repro.serve import BenchService

    studies = tuple(study for token in args.studies for study in token)
    service = BenchService(
        workers=args.workers, max_queue=args.queue_limit,
        timeout=args.timeout, isolation=args.isolation,
        reuse=not args.no_reuse,
        telemetry_port=args.telemetry_port,
    )
    with service:
        if service.telemetry is not None:
            print(f"telemetry at {service.telemetry.url}")
        try:
            handles = [
                service.submit(
                    kernel, studies=studies, scale=args.scale,
                    seed=args.seed, scenario=args.scenario,
                    cache_config=MACHINES[args.machine],
                    backend=args.backend,
                )
                for kernel in args.kernels
            ]
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        rows = []
        failures = 0
        for handle in handles:
            report = handle.wait(timeout=args.timeout or 600.0)
            failures += report.error is not None
            rows.append([
                handle.job.kernel,
                handle.job.backend or "-",
                handle.origin,
                f"{handle.latency_seconds:.3f}",
                f"{report.wall_seconds:.3f}",
                report.error or "-",
            ])
    print(render_table(
        ["kernel", "backend", "origin", "latency s", "kernel s", "error"],
        rows,
        title=(f"serve submit (workers={args.workers}, "
               f"isolation={args.isolation}, scale={args.scale})"),
    ))
    for line in _service_summary(service):
        print(line)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(service.metrics.as_dict(), indent=2, sort_keys=True)
        )
        print(f"metrics written to {args.metrics_out}")
    return 1 if failures else 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    import tempfile

    from repro.serve import (
        BenchService,
        TraceSpec,
        duplicate_fraction,
        generate_requests,
        replay,
    )

    spec = TraceSpec(requests=args.requests, seed=args.seed,
                     scale=args.scale)
    trace_jobs = generate_requests(spec)
    dup = duplicate_fraction(trace_jobs)
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as scratch:
        store = ResultStore(args.cache_dir or scratch)
        with BenchService(workers=args.workers, max_queue=args.queue_limit,
                          isolation=args.isolation, store=store,
                          telemetry_port=args.telemetry_port) as service:
            if service.telemetry is not None:
                print(f"telemetry at {service.telemetry.url}")
            result = replay(service, trace_jobs)
    served = result.cache_hits + result.coalesced
    print(render_table(
        ["requests", "unique", "dup frac", "p50 ms", "p99 ms",
         "hit rate", "coalesce rate", "rejected", "errors"],
        [[
            result.completed,
            result.executed,
            f"{dup:.3f}",
            f"{result.percentile(50) * 1e3:.2f}",
            f"{result.percentile(99) * 1e3:.2f}",
            f"{result.rate('cached'):.3f}",
            f"{result.rate('coalesced'):.3f}",
            result.rejected,
            result.errors,
        ]],
        title=(f"serve bench (seed={args.seed}, workers={args.workers}, "
               f"wall={result.wall_seconds:.1f}s)"),
    ))
    print(f"served without execution: {served}/{result.completed} "
          f"(theoretical duplicate fraction {dup:.3f})")
    for line in _service_summary(service):
        print(line)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(service.metrics.as_dict(), indent=2, sort_keys=True)
        )
        print(f"metrics written to {args.metrics_out}")
    return 1 if result.errors else 0


def _command_serve_up(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve import BenchService

    service = BenchService(
        workers=args.workers, isolation=args.isolation,
        reuse=not args.no_reuse, telemetry_port=args.telemetry_port,
    )
    with service:
        print(f"telemetry at {service.telemetry.url}", flush=True)
        handles = [
            service.submit(kernel, scale=args.scale, seed=args.seed,
                           scenario=args.scenario,
                           cache_config=MACHINES[args.machine])
            for kernel in args.kernels
        ]
        failures = 0
        for handle in handles:
            report = handle.wait(timeout=600.0)
            failures += report.error is not None
            print(f"{handle.job.kernel}: {handle.origin} "
                  f"({handle.latency_seconds:.3f}s)"
                  + (f" ERROR {report.error}" if report.error else ""),
                  flush=True)
        deadline = _time.monotonic() + args.duration
        try:
            while _time.monotonic() < deadline:
                _time.sleep(0.2)
        except KeyboardInterrupt:
            pass
    return 1 if failures else 0


def _command_serve_status(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    routes = ["/healthz", "/readyz"] + (["/metrics"] if args.metrics else [])
    healthy = True
    for route in routes:
        try:
            with urllib.request.urlopen(base + route, timeout=5) as response:
                body = response.read().decode("utf-8", "replace")
                code = response.status
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            code = error.code
            healthy = False
        except OSError as error:
            print(f"{route}: unreachable ({error})", file=sys.stderr)
            return 2
        print(f"{route} [{code}]")
        print(body.rstrip())
    return 0 if healthy else 1


def _command_serve_trace(args: argparse.Namespace) -> int:
    from repro.obs.context import stitch_trace
    from repro.serve import BenchService

    studies = tuple(study for token in args.studies for study in token)
    tracer = Tracer()
    with trace.use(tracer):
        with BenchService(workers=1, isolation=args.isolation,
                          store=None, reuse=False) as service:
            handle = service.submit(
                args.kernel, studies=studies, scale=args.scale,
                seed=args.seed, scenario=args.scenario,
                cache_config=MACHINES[args.machine],
            )
            report = handle.wait(timeout=args.timeout)
    stitched = stitch_trace(handle.trace_id, tracer.records(), report.spans)
    print(render_tree(
        stitched,
        title=(f"Stitched trace {handle.trace_id}: {args.kernel} "
               f"(isolation={args.isolation}, scale={args.scale})"),
    ))
    pids = {record.get("pid", 0) for record in stitched}
    print(f"\n{len(stitched)} spans across {len(pids)} process(es), "
          f"one trace id: {handle.trace_id}")
    out = args.out or f"{args.kernel}.trace.json"
    write_chrome_trace(stitched, out)
    print(f"trace written to {out} (open in https://ui.perfetto.dev)")
    return 1 if report.error else 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "submit":
        return _command_serve_submit(args)
    if args.serve_command == "bench":
        return _command_serve_bench(args)
    if args.serve_command == "up":
        return _command_serve_up(args)
    if args.serve_command == "status":
        return _command_serve_status(args)
    if args.serve_command == "trace":
        return _command_serve_trace(args)
    raise AssertionError(f"unhandled serve command {args.serve_command!r}")


def _command_obs_export(args: argparse.Namespace) -> int:
    from repro.harness.runner import load_reports
    from repro.obs.exposition import exposition, snapshot

    registry = obs_metrics.MetricsRegistry()
    if args.reports:
        for path in args.reports:
            for report in load_reports(path).values():
                if report.metrics:
                    registry.merge_dict(report.metrics)
    else:
        registry = obs_metrics.current_registry()
    exported = registry.as_dict()
    if args.format == "json":
        rendered = json.dumps(snapshot(exported), indent=2, sort_keys=True)
    else:
        rendered = exposition(exported)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"metrics written to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def _command_obs_check(args: argparse.Namespace) -> int:
    from repro.harness.runner import load_reports
    from repro.obs import baseline as obs_baseline

    window = args.window if args.window is not None \
        else obs_baseline.DEFAULT_WINDOW
    checks = obs_baseline.check_trajectories(root=args.root, window=window)
    if (args.candidate is None) != (args.baseline is None):
        print("error: --candidate and --baseline go together",
              file=sys.stderr)
        return 2
    if args.candidate is not None:
        checks.extend(obs_baseline.check_reports(
            load_reports(args.candidate), load_reports(args.baseline)))
    print(obs_baseline.render_checks(checks))
    if args.out:
        path = obs_baseline.write_check(checks, args.out)
        print(f"verdict written to {path}")
    return 1 if obs_baseline.overall_status(checks) == "regress" else 0


def _command_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "export":
        return _command_obs_export(args)
    if args.obs_command == "check":
        return _command_obs_check(args)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _command_cache(args: argparse.Namespace) -> int:
    store = ResultStore()
    if args.cache_command == "list":
        entries = store.entries()
        if not entries:
            print(f"no cached reports under {store.root}")
            return 0
        rows = [[
            meta["digest"],
            meta.get("kernel", "?"),
            meta.get("scenario", "?"),
            meta.get("scale", "?"),
            ",".join(meta.get("studies", [])),
            f"{meta.get('bytes', 0) / 1024:.0f} KiB",
        ] for meta in entries]
        print(render_table(
            ["digest", "kernel", "scenario", "scale", "studies", "size"],
            rows,
            title=(f"Result cache: {store.root} "
                   f"({store.total_bytes() / 1024:.0f} KiB)"),
        ))
        return 0
    if args.cache_command == "gc":
        if args.max_bytes is not None:
            store.max_bytes = args.max_bytes
        if args.max_entries is not None:
            store.max_entries = args.max_entries
        removed, freed = store.gc(everything=args.all)
        print(f"removed {removed} report(s), freed {freed / 1024:.0f} KiB")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _command_sweep_expand(args: argparse.Namespace) -> int:
    from repro.data.manifest import resolve_manifest

    manifest = resolve_manifest(args.manifest)
    rows = []
    for cell in manifest.cells:
        axes = ", ".join(f"{axis}={level}" for axis, level in cell.axes)
        rows.append([
            cell.name,
            cell.fidelity,
            axes or "-",
            cell.spec().digest(),
            cell.description or "-",
        ])
    print(render_table(
        ["cell", "fidelity", "axes", "spec digest", "description"], rows,
        title=f"Manifest {manifest.name!r}: {len(manifest.cells)} cells",
    ))
    paper = manifest.paper_cells()
    print(f"\n{len(paper)} paper-fidelity cell(s): "
          f"{', '.join(cell.name for cell in paper) or '-'}")
    backends = (tuple(b for token in args.backends for b in token)
                if args.backends else ())
    if backends:
        print(f"backend axis: {', '.join(backends)} — a sweep over this "
              f"manifest grids {len(manifest.cells)} cells x "
              f"{len(backends)} backends per kernel/scale/seed")
    return 0


def _command_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import compile_sweep, run_sweep, save_sweep

    kernels = tuple(k for token in args.kernels for k in token)
    cells = (tuple(c for token in args.cells for c in token)
             if args.cells else None)
    studies = tuple(study for token in args.studies for study in token)
    backends = (tuple(b for token in args.backends for b in token)
                if args.backends else None)
    plan = compile_sweep(
        args.manifest, kernels=kernels, studies=studies,
        scales=tuple(args.scales), seeds=tuple(args.seeds), cells=cells,
        cache_config=MACHINES[args.machine], backends=backends,
    )
    print(f"sweep: {len(plan)} grid points "
          f"({len(set(plan.cells))} cells x {len(plan.kernels)} kernels "
          f"x {len(plan.scales)} scales x {len(plan.seeds)} seeds x "
          f"{len(plan.backends)} backends)")
    result = run_sweep(plan, workers=args.jobs, timeout=args.timeout,
                       reuse=args.reuse)
    path = save_sweep(result, args.dir)
    origins = result.origin_counts()
    print(f"completed in {result.wall_seconds:.1f}s "
          f"(executed={origins.get('executed', 0)} "
          f"cached={origins.get('cached', 0)}); saved to {path}")
    for failure in result.errors:
        print(f"ERROR {failure.kernel} @ {failure.scenario}: "
              f"{failure.report.error}", file=sys.stderr)
    for gated in result.gate_failures:
        for violation in gated.gate_violations:
            print(f"GATE {gated.kernel} @ {gated.scenario}: {violation}",
                  file=sys.stderr)
    return 1 if result.errors or result.gate_failures else 0


def _command_sweep_report(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import (
        aggregate_sweep,
        leaderboard,
        render_leaderboard,
        topdown_drift,
    )
    from repro.sweep import load_sweep

    sweep = load_sweep(args.dir)
    paths = aggregate_sweep(sweep, args.dir)
    print(render_leaderboard(
        leaderboard(sweep),
        title=(f"Leaderboard: {sweep.manifest_name} "
               f"({len(sweep)} grid points)"),
    ))
    drift = topdown_drift(sweep)
    if drift:
        print("\ntop-down shape drift across scenarios:")
        for kernel, per_scenario in sorted(drift.items()):
            shifts = ", ".join(f"{scenario}={slot}" for scenario, slot
                               in sorted(per_scenario.items()))
            print(f"  {kernel}: {shifts}")
    else:
        print("\nno top-down shape drift across scenarios")
    print()
    for name, path in sorted(paths.items()):
        print(f"{name} written to {path}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "expand":
        return _command_sweep_expand(args)
    if args.sweep_command == "run":
        return _command_sweep_run(args)
    if args.sweep_command == "report":
        return _command_sweep_report(args)
    raise AssertionError(f"unhandled sweep command {args.sweep_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "validate":
        return _command_validate(args)
    if args.command == "data":
        return _command_data(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "obs":
        return _command_obs(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "sweep":
        return _command_sweep(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
