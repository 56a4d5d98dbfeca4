"""The sweep driver: compile a kernel × cell × scale grid and run it.

``compile_sweep`` takes a scenario :class:`~repro.data.manifest.Manifest`
(a name under ``benchmarks/manifests/`` or a path), installs its cells
into the scenario registry, and expands a grid of executor
:class:`~repro.harness.executor.Job`\\ s — one per
``kernel × cell × scale × seed`` point, validated up front so a typo'd
kernel or study fails before anything runs.  Cells the manifest flags
``fidelity = "paper"`` automatically get the studies their paper-shape
gates need (:mod:`repro.sweep.gates`), and every paper-cell report is
gate-checked when results come back.

``run_sweep`` gets each grid point's report one of two ways:

* through :func:`~repro.harness.executor.execute_jobs` (the default) —
  the same failure-isolated pool, result cache, and per-job timeouts
  ``repro run`` uses;
* through a ``runner`` callable (``Job -> KernelReport``) — the test
  hook, mirroring :class:`~repro.serve.BenchService`'s.

Both yield :class:`~repro.harness.executor.JobOutcome`\\ s, which
become a flat list of :class:`CellResult`\\ s — one per grid point, each
carrying its report, its origin (``executed`` / ``cached``), and any
gate violations — which
:mod:`repro.analysis.aggregate` folds into summary tables and
leaderboards.  ``save_sweep``/``load_sweep`` round-trip the whole thing
through ``sweep.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.data.manifest import Manifest, install_manifest, resolve_manifest
from repro.errors import SweepError
from repro.harness.executor import (
    EXECUTED,
    Job,
    JobOutcome,
    execute_jobs,
    validate_names,
)
from repro.harness.runner import SCHEMA_VERSION, KernelReport, run_metadata
from repro.kernels.base import resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.sweep.gates import check_paper_gates, gate_studies
from repro.uarch.cache import MACHINE_B, CacheConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.store import ResultStore


@dataclass(frozen=True)
class SweepPlan:
    """A validated grid: the manifest plus one job per grid point.

    ``jobs[i]`` belongs to cell ``cells[i]``; ``paper[i]`` says whether
    that cell's report must pass the paper-shape gates.
    """

    manifest: Manifest
    jobs: tuple[Job, ...]
    cells: tuple[str, ...]
    paper: tuple[bool, ...]
    kernels: tuple[str, ...]
    studies: tuple[str, ...]
    scales: tuple[float, ...]
    seeds: tuple[int, ...]
    #: Requested backend axis (``""`` = each kernel's default); the
    #: jobs carry the per-kernel *resolved* names.
    backends: tuple[str, ...] = ("",)

    def __len__(self) -> int:
        return len(self.jobs)


def compile_sweep(
    manifest: "Manifest | str | Path",
    kernels: tuple[str, ...],
    studies: tuple[str, ...] = ("timing",),
    scales: tuple[float, ...] = (1.0,),
    seeds: tuple[int, ...] = (0,),
    cells: "tuple[str, ...] | None" = None,
    cache_config: CacheConfig = MACHINE_B,
    backends: "tuple[str, ...] | None" = None,
) -> SweepPlan:
    """Compile a ``kernel × cell × scale × seed × backend`` grid.

    *manifest* may be a parsed :class:`Manifest`, a registered manifest
    name, or a TOML path; its cells are installed into the scenario
    registry so the executor (and the result cache's dataset digests)
    can resolve them.  *cells* restricts the grid to a subset of cell
    names; paper-fidelity cells get their gate studies unioned in.

    *backends* adds an execution-backend axis (``None``: one implicit
    axis point, each kernel's default).  Every named backend must be
    supported by every requested kernel — resolution happens here, at
    compile time, so a grid mixing e.g. ``gpu`` with a CPU-only kernel
    fails with a clear error before anything runs.
    """
    if not isinstance(manifest, Manifest):
        manifest = resolve_manifest(manifest)
    kernels = tuple(kernels)
    studies = tuple(studies)
    if not kernels:
        raise SweepError("a sweep needs at least one kernel")
    validate_names(kernels, studies)
    for scale in scales:
        if not scale > 0:
            raise SweepError(f"sweep scales must be > 0, got {scale!r}")
    if not scales:
        raise SweepError("a sweep needs at least one scale")
    if not seeds:
        raise SweepError("a sweep needs at least one seed")
    backend_axis = tuple(backends) if backends else ("",)
    # Resolve every (kernel, backend) pair up front: unsupported
    # combinations fail at compile time with the registry's error.
    resolved = {
        (kernel, backend): resolve_backend(kernel, backend or None)
        for backend in backend_axis for kernel in kernels
    }

    if cells is None:
        selected = list(manifest.cells)
    else:
        known = manifest.cell_names()
        unknown = sorted(set(cells) - set(known))
        if unknown:
            raise SweepError(
                f"manifest {manifest.name!r} has no cell(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"known: {', '.join(known)}"
            )
        by_name = {cell.name: cell for cell in manifest.cells}
        selected = [by_name[name] for name in cells]
    if not selected:
        raise SweepError(f"manifest {manifest.name!r} selected no cells")

    install_manifest(manifest)

    jobs: list[Job] = []
    cell_names: list[str] = []
    paper_flags: list[bool] = []
    for cell in selected:
        is_paper = cell.fidelity == "paper"
        for scale in scales:
            for seed in seeds:
                for backend in backend_axis:
                    for kernel in kernels:
                        job_backend = resolved[(kernel, backend)]
                        job_studies = studies
                        if is_paper:
                            extra = tuple(
                                study
                                for study in gate_studies(kernel, job_backend)
                                if study not in job_studies
                            )
                            job_studies = job_studies + extra
                        jobs.append(Job(
                            kernel=kernel,
                            studies=job_studies,
                            scale=scale,
                            seed=seed,
                            cache_config=cache_config,
                            scenario=cell.name,
                            backend=job_backend,
                        ))
                        cell_names.append(cell.name)
                        paper_flags.append(is_paper)
    return SweepPlan(
        manifest=manifest,
        jobs=tuple(jobs),
        cells=tuple(cell_names),
        paper=tuple(paper_flags),
        kernels=kernels,
        studies=studies,
        scales=tuple(scales),
        seeds=tuple(seeds),
        backends=backend_axis,
    )


@dataclass
class CellResult:
    """One grid point's outcome: the report plus sweep-level context."""

    scenario: str
    kernel: str
    scale: float
    seed: int
    fidelity: str
    origin: str
    report: KernelReport
    gate_violations: tuple[str, ...] = ()
    #: Resolved execution backend the grid point ran on ("" in results
    #: predating the backend plane).
    backend: str = ""

    @property
    def ok(self) -> bool:
        """Completed without a kernel error or a gate violation."""
        return self.report.error is None and not self.gate_violations


@dataclass
class SweepResult:
    """Every grid point's :class:`CellResult`, plus run provenance."""

    manifest_name: str
    results: list[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def errors(self) -> list[CellResult]:
        return [r for r in self.results if r.report.error is not None]

    @property
    def gate_failures(self) -> list[CellResult]:
        return [r for r in self.results if r.gate_violations]

    def origin_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.origin] = counts.get(result.origin, 0) + 1
        return counts


def _results_from_outcomes(
    plan: SweepPlan, outcomes: "list[JobOutcome]"
) -> list[CellResult]:
    """One gate-checked :class:`CellResult` per outcome, aligned by
    position with *plan*'s grid."""
    results = []
    for index, outcome in enumerate(outcomes):
        job, report = outcome.job, outcome.report
        results.append(CellResult(
            scenario=job.scenario,
            kernel=job.kernel,
            scale=job.scale,
            seed=job.seed,
            fidelity="paper" if plan.paper[index] else "bench",
            origin=outcome.origin,
            report=report,
            gate_violations=(check_paper_gates(report)
                             if plan.paper[index] else ()),
            backend=job.backend,
        ))
    return results


def _record_sweep_metrics(plan: SweepPlan, results: "list[CellResult]",
                          wall_seconds: float) -> None:
    """Fold a sweep's outcome into the process-current metrics registry
    so the telemetry plane (and ``repro obs export``) can see sweeps
    alongside serve traffic: per-origin result counters, error and
    gate-failure counters, and a wall-seconds gauge, all labeled by
    manifest."""
    registry = obs_metrics.current_registry()
    manifest = plan.manifest.name
    for result in results:
        registry.counter("sweep.results", manifest=manifest,
                         origin=result.origin).inc()
        if result.report.error is not None:
            registry.counter("sweep.errors", manifest=manifest,
                             kernel=result.kernel).inc()
        if result.gate_violations:
            registry.counter("sweep.gate_failures", manifest=manifest,
                             kernel=result.kernel).inc()
    registry.gauge("sweep.wall_seconds", manifest=manifest).set(wall_seconds)
    registry.gauge("sweep.grid_points", manifest=manifest).set(len(plan))


def run_sweep(
    plan: SweepPlan,
    workers: int = 1,
    timeout: "float | None" = None,
    store: "ResultStore | None" = None,
    runner: "Callable[[Job], KernelReport] | None" = None,
) -> SweepResult:
    """Run every job of *plan* and return gate-checked cell results.

    *runner* (test hook) wins over the executor path (:func:`execute_jobs`
    with *workers*/*timeout*/*store*; a *store* serves cache hits and
    keeps fresh reports, ``None`` runs every job).
    """
    started = time.monotonic()
    with trace.timed_span(f"sweep/{plan.manifest.name}",
                          {"grid_points": len(plan)}):
        if runner is not None:
            outcomes = [JobOutcome(job=job, report=runner(job))
                        for job in plan.jobs]
        else:
            outcomes = execute_jobs(plan.jobs, workers=workers,
                                    timeout=timeout, store=store)
        results = _results_from_outcomes(plan, outcomes)
    _record_sweep_metrics(plan, results, time.monotonic() - started)
    return SweepResult(
        manifest_name=plan.manifest.name,
        results=results,
        wall_seconds=time.monotonic() - started,
        metadata={
            **run_metadata(),
            "manifest": plan.manifest.name,
            "kernels": list(plan.kernels),
            "studies": list(plan.studies),
            "scales": list(plan.scales),
            "seeds": list(plan.seeds),
            "backends": [backend or "default" for backend in plan.backends],
            "cells": len(set(plan.cells)),
            "grid_points": len(plan),
        },
    )


#: File name ``save_sweep`` writes inside its output directory.
SWEEP_FILE = "sweep.json"


def save_sweep(result: SweepResult, out_dir: "str | Path") -> Path:
    """Serialize *result* to ``<out_dir>/sweep.json``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / SWEEP_FILE
    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": result.manifest_name,
        "wall_seconds": result.wall_seconds,
        "metadata": result.metadata,
        "results": [
            {
                "scenario": r.scenario,
                "kernel": r.kernel,
                "scale": r.scale,
                "seed": r.seed,
                "fidelity": r.fidelity,
                "origin": r.origin,
                "backend": r.backend,
                "gate_violations": list(r.gate_violations),
                "report": asdict(r.report),
            }
            for r in result.results
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_sweep(path: "str | Path") -> SweepResult:
    """Load a :func:`save_sweep` file (or the directory holding one)."""
    target = Path(path)
    if target.is_dir():
        target = target / SWEEP_FILE
    try:
        payload = json.loads(target.read_text())
    except OSError as error:
        raise SweepError(f"cannot read sweep result {target}: {error}")
    except ValueError as error:
        raise SweepError(f"sweep result {target} is not JSON: {error}")
    if not isinstance(payload, dict) or "results" not in payload:
        raise SweepError(f"sweep result {target} has no results")
    version = payload.get("schema_version")
    if isinstance(version, int) and version > SCHEMA_VERSION:
        raise SweepError(
            f"unsupported sweep schema {version!r} (this build reads "
            f"<= {SCHEMA_VERSION})"
        )
    results = []
    for record in payload["results"]:
        report = KernelReport.from_dict(record["report"])
        results.append(CellResult(
            scenario=record["scenario"],
            kernel=record["kernel"],
            scale=record["scale"],
            seed=record["seed"],
            fidelity=record.get("fidelity", "bench"),
            origin=record.get("origin", EXECUTED),
            report=report,
            gate_violations=tuple(record.get("gate_violations", ())),
            backend=record.get("backend", report.backend),
        ))
    return SweepResult(
        manifest_name=payload.get("manifest", ""),
        results=results,
        wall_seconds=payload.get("wall_seconds", 0.0),
        metadata=payload.get("metadata", {}),
    )
