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
from repro.harness.runner import run_suite, save_reports
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
from repro.obs.exposition import parse_series
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
    studies = _name_list(value)
    known = study_names()
    for study in studies:
        if study not in known:
            raise argparse.ArgumentTypeError(
                f"invalid study {study!r} (choose from {', '.join(known)})"
            )
    return studies


def _flat(tokens) -> list[str]:
    """Flatten a ``nargs="+"`` list of comma-split tokens (``None``: [])."""
    return [item for token in tokens or () for item in token]


def _shared_flags() -> dict[str, dict]:
    """The flags several subcommands take, defined once: ``--<name>``
    (underscores become dashes) -> ``add_argument`` keywords.  Built per
    parser so ``--scenario`` sees scenarios registered since import."""
    return {
        "scale": dict(type=float, default=1.0,
                      help="dataset scale factor (default %(default)s)"),
        "seed": dict(type=int, default=0,
                     help="dataset seed (default %(default)s)"),
        "scenario": dict(
            choices=scenario_names(), default="default",
            help="named dataset scenario every kernel prepares on "
                 "(default: %(default)s)",
        ),
        "machine": dict(
            choices=sorted(MACHINES), default="B",
            help="cache-hierarchy configuration for the trace studies "
                 "(paper Table 5; default: B, the kernel-analysis machine)",
        ),
        "studies": dict(
            nargs="+", default=[["timing"]], type=_study_list,
            metavar="STUDY",
            help="studies to run, space- or comma-separated "
                 f"(default: timing; choices: {', '.join(study_names())})",
        ),
        "backend": dict(
            choices=BACKENDS, default=None,
            help="execution backend for every kernel (default: each "
                 "kernel's own default; a kernel that does not implement "
                 "the backend fails at compile time); joins the job "
                 "digest, so two backends never share a cache entry",
        ),
        "jobs": dict(
            type=int, default=1, metavar="N",
            help="worker processes (default 1: serial, deterministic; N>1 "
                 "runs kernels in parallel with per-kernel failure "
                 "isolation)",
        ),
        "timeout": dict(
            type=float, default=None, metavar="SECONDS",
            help="per-job time limit; a job past it is stopped and "
                 "reported failed (run and sweep run then run every job "
                 "in a worker process; serve needs --isolation process)",
        ),
        "reuse": dict(
            action="store_true",
            help="serve cache hits from benchmarks/results/cache/ "
                 "($REPRO_CACHE_DIR) and write fresh reports back",
        ),
        "trace_out": dict(
            default=None, metavar="PATH",
            help="trace the run and write a Chrome trace-event JSON file "
                 "(open in https://ui.perfetto.dev)",
        ),
        "workers": dict(type=int, default=2, metavar="N",
                        help="service worker threads (default %(default)s)"),
        "queue_limit": dict(
            type=int, default=64, metavar="N",
            help="admission-control high-water mark (default %(default)s)",
        ),
        "isolation": dict(
            choices=("process", "inline"), default="process",
            help="run each execution in an executor worker process "
                 "(default; spans stitch across processes) or inline on "
                 "the service worker thread",
        ),
        "no_reuse": dict(
            action="store_true",
            help="skip the shared result cache (still coalesces in-flight "
                 "duplicates)",
        ),
        "metrics_out": dict(default=None, metavar="PATH",
                            help="write the service metrics dump as JSON"),
        "telemetry_port": dict(
            type=int, default=None, metavar="PORT",
            help="expose /metrics,/healthz,/readyz on 127.0.0.1:PORT while "
                 "the service runs (0 = ephemeral, printed; default: "
                 "%(default)s, None = no endpoint)",
        ),
        "manifest": dict(
            default="matrix", metavar="NAME_OR_PATH",
            help="manifest name under benchmarks/manifests/ or a TOML path "
                 "(default: %(default)s)",
        ),
        "dir": dict(
            default="benchmarks/results/sweep", metavar="DIR",
            help="directory holding sweep.json and the tables aggregated "
                 "from it (default: %(default)s)",
        ),
        "all": dict(action="store_true",
                    help="remove every entry, current ones included"),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PangenomicsBench reproduction: run and characterize kernels",
    )
    table = _shared_flags()

    def command(group, name: str, handler, *flags: str, **kwargs):
        """Add subcommand *name* run by *handler*, taking the named
        shared flags through a fresh parent parser (fresh, so its
        ``set_defaults`` cannot leak into another subcommand)."""
        parent = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            parent.add_argument("--" + flag.replace("_", "-"), **table[flag])
        sub = group.add_parser(name, parents=[parent], **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    commands = parser.add_subparsers(dest="command", required=True)

    command(commands, "list", _command_list,
            help="list the registered kernels")

    run = command(
        commands, "run", _command_run, "studies", "scale", "seed",
        "scenario", "backend", "machine", "jobs", "timeout", "reuse",
        "trace_out", help="run kernels under selected studies",
    )
    run.add_argument(
        "kernels", nargs="*", metavar="KERNEL",
        help="kernel names (default: the eight suite kernels)",
    )
    run.add_argument(
        "--kernels", dest="kernels_opt", nargs="+", default=None,
        metavar="KERNEL", help="kernel names (same as the positionals)",
    )
    run.add_argument(
        "--stream", action="store_true",
        help="bounded-memory mode: derive kernel inputs in chunks "
             "through the artifact store instead of materializing them "
             "(identical reports; use at large --scale)",
    )
    run.add_argument("--out", default=None,
                     help="write JSON reports to this path")

    tracecmd = command(
        commands, "trace", _command_trace, "scale", "seed", "scenario",
        "machine", "trace_out",
        help="trace one kernel: span tree, per-phase top-down, Chrome trace",
    )
    tracecmd.add_argument("kernel", metavar="KERNEL", help="kernel to trace")

    validate = command(
        commands, "validate", _command_validate, "scale", "seed",
        "scenario", help="run every kernel's oracle self-check",
    )
    validate.set_defaults(scale=0.5)
    validate.add_argument("--kernels", nargs="+", default=None,
                          metavar="KERNEL",
                          help="kernels to check (default: all registered)")

    data = commands.add_parser(
        "data", help="inspect and manage the shared dataset store"
    )
    data_commands = data.add_subparsers(dest="data_command", required=True)
    command(data_commands, "list", _command_data_list,
            help="list corpora in the artifact store")
    data_build = command(
        data_commands, "build", _command_data_build, "scale", "seed",
        help="pre-build (or warm-load) scenario corpora",
    )
    data_build.add_argument(
        "--scenario", nargs="+", choices=scenario_names(),
        default=["default"], metavar="SCENARIO",
        help="scenarios to build (default: default)",
    )
    command(data_commands, "gc", _command_data_gc, "all",
            help="remove stale artifacts (different generator version)")

    serve = commands.add_parser(
        "serve",
        help="benchmark-as-a-service: submit requests / run a load replay",
    )
    serve_commands = serve.add_subparsers(dest="serve_command", required=True)
    submit = command(
        serve_commands, "submit", _command_serve_submit, "studies", "scale",
        "seed", "scenario", "backend", "machine", "workers", "queue_limit",
        "timeout", "isolation", "no_reuse", "metrics_out", "telemetry_port",
        help="start a service, submit requests (duplicates coalesce), "
             "wait, and print per-request origins",
    )
    submit.add_argument(
        "kernels", nargs="+", metavar="KERNEL",
        help="one request per name; repeat a name to submit duplicates",
    )

    serve_bench = command(
        serve_commands, "bench", _command_serve_bench, "seed", "scale",
        "workers", "queue_limit", "isolation", "metrics_out",
        "telemetry_port",
        help="replay a seeded mixed request trace and report p50/p99 "
             "latency, hit rate and coalesce rate (the small default "
             "queue limit exercises backpressure)",
    )
    serve_bench.set_defaults(scale=0.05, workers=4, queue_limit=32)
    serve_bench.add_argument("--requests", type=int, default=500,
                             help="trace length (default %(default)s)")
    serve_bench.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root for the replay (default: a fresh "
             "temporary directory, so rates are measured from cold)",
    )

    serve_up = command(
        serve_commands, "up", _command_serve_up, "scale", "seed",
        "scenario", "machine", "workers", "isolation", "telemetry_port",
        "no_reuse",
        help="hold a service up (with its telemetry endpoint) for a "
             "fixed duration — the CI smoke / manual scrape target",
    )
    serve_up.set_defaults(scale=0.05, telemetry_port=0)
    serve_up.add_argument(
        "--kernels", nargs="*", default=[], metavar="KERNEL",
        help="requests to submit (and wait for) once the service is up",
    )
    serve_up.add_argument(
        "--duration", type=float, default=60.0, metavar="SECONDS",
        help="how long to keep serving after submissions complete "
             "(default 60; Ctrl-C exits early)",
    )

    serve_status = command(
        serve_commands, "status", _command_serve_status,
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

    serve_trace = command(
        serve_commands, "trace", _command_serve_trace, "scale", "seed",
        "scenario", "machine", "studies", "isolation", "timeout",
        help="submit one request through a fresh service and emit its "
             "stitched cross-process Chrome trace",
    )
    serve_trace.set_defaults(scale=0.25, timeout=600.0)
    serve_trace.add_argument("kernel", metavar="KERNEL")
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
    obs_export = command(
        obs_commands, "export", _command_obs_export,
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
    obs_check = command(
        obs_commands, "check", _command_obs_check,
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
    command(cache_commands, "list", _command_cache_list,
            help="list cached reports (most recent first)")
    cache_gc = command(
        cache_commands, "gc", _command_cache_gc, "all",
        help="drop unservable entries and enforce a byte/entry budget",
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
    sweep_expand = command(
        sweep_commands, "expand", _command_sweep_expand, "manifest",
        help="expand a manifest and print its cells (no kernels run)",
    )
    sweep_expand.add_argument(
        "--backend", dest="backends", nargs="+", default=None,
        type=_name_list, metavar="BACKEND",
        help="show the grid multiplier a backend axis would add "
             "(space- or comma-separated backend names)",
    )
    sweep_run = command(
        sweep_commands, "run", _command_sweep_run, "manifest", "studies",
        "machine", "jobs", "timeout", "reuse", "dir",
        help="run a kernel × cell × scale grid and save sweep.json "
             "(paper-fidelity cells get their claims' studies added)",
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
    command(sweep_commands, "report", _command_sweep_report, "dir",
            help="aggregate a saved sweep into summary + leaderboard tables")
    return parser


def _command_list(args: argparse.Namespace) -> int:
    rows = []
    for name in kernel_names():
        kernel = create_kernel(name)
        rows.append([name, kernel.parent_tool, kernel.input_type])
    print(render_table(["kernel", "parent tool", "input type"], rows,
                       title="Registered kernels"))
    return 0


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
            series, labels = parse_series(key)
            if series != "kernel.backend_fallback":
                continue
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
    studies = _flat(args.studies)
    tracer = Tracer() if args.trace_out else None
    with trace.use(tracer) if tracer else _null_context():
        reports = run_suite(
            tuple(kernels), studies=tuple(studies),
            scale=args.scale, seed=args.seed,
            cache_config=MACHINES[args.machine],
            jobs=args.jobs, timeout=args.timeout,
            store=ResultStore() if args.reuse else None,
            scenario=args.scenario, stream=args.stream,
            backend=args.backend,
        )
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
        report = run_suite(
            (args.kernel,),
            studies=TRACE_STUDIES,
            scale=args.scale,
            seed=args.seed,
            cache_config=MACHINES[args.machine],
            scenario=args.scenario,
        )[args.kernel]
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
    if report.error:
        print(f"error: {args.kernel}: {report.error}", file=sys.stderr)
        return 1
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    reports = run_suite(
        tuple(args.kernels) if args.kernels else None,
        studies=("validate",), scale=args.scale, seed=args.seed,
        scenario=args.scenario,
    )
    for name, report in reports.items():
        status = f"FAILED: {report.error}" if report.error else "ok"
        print(f"{name:10s} {status}")
    return 1 if any(report.error for report in reports.values()) else 0


def _command_data_list(args: argparse.Namespace) -> int:
    store = default_store()
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


def _command_data_build(args: argparse.Namespace) -> int:
    store = default_store()
    for name in args.scenario:
        spec = scenario_spec(name, scale=args.scale, seed=args.seed)
        _data, origin = ensure_corpus(spec, store)
        print(f"{name:16s} {spec.digest()}  ({origin})")
    return 0


def _command_data_gc(args: argparse.Namespace) -> int:
    removed, freed = default_store().gc(everything=args.all)
    print(f"removed {removed} dataset(s), freed {freed / 1024:.0f} KiB")
    return 0


def _print_service_summary(service, metrics_out: "str | None") -> None:
    """Print one-liners from a service's metrics registry, and write the
    whole dump to *metrics_out* when given."""
    from repro.obs.metrics import quantile_estimate
    from repro.serve.service import counter_total

    exported = service.metrics.as_dict()
    print("submitted={:.0f} executed={:.0f} coalesced={:.0f} "
          "cache_hits={:.0f} rejected={:.0f}".format(
              counter_total(exported, "serve.submitted"),
              counter_total(exported, "serve.executed"),
              counter_total(exported, "serve.coalesced"),
              counter_total(exported, "serve.cache_hits"),
              counter_total(exported, "serve.rejected"),
          ))
    for key, payload in sorted(exported.get("histograms", {}).items()):
        if key.startswith("serve.latency_seconds") and payload["count"]:
            _, labels = parse_series(key)
            origin = labels.get("origin", "all")
            p50, p95, p99 = (quantile_estimate(payload, q)
                             for q in (0.50, 0.95, 0.99))
            print(f"latency[{origin}]: n={payload['count']} "
                  f"p50={p50 * 1e3:.2f}ms p95={p95 * 1e3:.2f}ms "
                  f"p99={p99 * 1e3:.2f}ms")
    if metrics_out:
        Path(metrics_out).write_text(
            json.dumps(exported, indent=2, sort_keys=True))
        print(f"metrics written to {metrics_out}")


def _command_serve_submit(args: argparse.Namespace) -> int:
    from repro.serve import BenchService

    studies = tuple(_flat(args.studies))
    service = BenchService(
        workers=args.workers, max_queue=args.queue_limit,
        timeout=args.timeout, isolation=args.isolation,
        store=None if args.no_reuse else ResultStore(),
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
    _print_service_summary(service, args.metrics_out)
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
    _print_service_summary(service, args.metrics_out)
    return 1 if result.errors else 0


def _command_serve_up(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve import BenchService

    service = BenchService(
        workers=args.workers, isolation=args.isolation,
        store=None if args.no_reuse else ResultStore(),
        telemetry_port=args.telemetry_port,
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

    studies = tuple(_flat(args.studies))
    tracer = Tracer()
    with trace.use(tracer):
        with BenchService(workers=1, isolation=args.isolation) as service:
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


def _command_cache_list(args: argparse.Namespace) -> int:
    store = ResultStore()
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


def _command_cache_gc(args: argparse.Namespace) -> int:
    store = ResultStore()
    if args.max_bytes is not None:
        store.max_bytes = args.max_bytes
    if args.max_entries is not None:
        store.max_entries = args.max_entries
    removed, freed = store.gc(everything=args.all)
    print(f"removed {removed} report(s), freed {freed / 1024:.0f} KiB")
    return 0


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
    backends = _flat(args.backends)
    if backends:
        print(f"backend axis: {', '.join(backends)} — a sweep over this "
              f"manifest grids {len(manifest.cells)} cells x "
              f"{len(backends)} backends per kernel/scale/seed")
    return 0


def _command_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import compile_sweep, run_sweep, save_sweep

    plan = compile_sweep(
        args.manifest, kernels=tuple(_flat(args.kernels)),
        studies=tuple(_flat(args.studies)), scales=tuple(args.scales),
        seeds=tuple(args.seeds), cells=tuple(_flat(args.cells)) or None,
        cache_config=MACHINES[args.machine],
        backends=tuple(_flat(args.backends)) or None,
    )
    print(f"sweep: {len(plan)} grid points "
          f"({len(set(plan.cells))} cells x {len(plan.kernels)} kernels "
          f"x {len(plan.scales)} scales x {len(plan.seeds)} seeds x "
          f"{len(plan.backends)} backends)")
    result = run_sweep(plan, workers=args.jobs, timeout=args.timeout,
                       store=ResultStore() if args.reuse else None)
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        # Rejections such as an unknown kernel or an unsupported backend
        # deserve a one-liner, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
