"""Declarative scenario manifests: axes, cross-products, named cells.

The registry in :mod:`repro.data.scenarios` used to be five hand-written
``register_scenario`` calls; a production matrix needs hundreds of
corpora, which nobody should enumerate by hand.  A *manifest* is a TOML
file (committed under ``benchmarks/manifests/``) that describes corpus
**axes** — population size, divergence, SV spectrum, read profile —
whose cross-product expands into one :class:`ManifestCell` (and thus one
content-hashed :class:`~repro.data.spec.DatasetSpec`) per combination,
plus optional explicitly-named **cells** (the legacy registry form).
The shape follows HYMET's ``cami_manifest.tsv``: a declarative sample
grid expanded by code, never duplicated into it.

Format::

    [manifest]
    name = "matrix"
    description = "..."
    axis_order = ["population", "divergence"]   # optional; default sorted

    [axes.population.pop8]          # baseline level: no overrides
    fidelity = "paper"              # cell is paper-grade iff every level is
    [axes.population.pop16]
    n_haplotypes = 16               # DatasetSpec field overrides, inline

    [axes.divergence.div1x]
    fidelity = "paper"
    [axes.divergence.div2x]
    rate_scale = {snp = 2.0}        # multiplies the base VariantRates
    rates = {sv_mean_length = 240.0}  # absolute VariantRates overrides

    [cells.default]                 # explicit cell, same vocabulary
    description = "the paper's shared corpus"
    fidelity = "paper"

Grid cells are named by joining their level names in axis order
(``pop16-div2x``).  Expansion is deterministic and order-independent:
axes iterate in ``axis_order`` (or sorted) regardless of TOML table
order, so the same manifest always yields the same cell-name and
spec-digest sets.  Conflicting overrides (two axes setting one field)
and duplicate cell names raise :class:`~repro.errors.ManifestError`
at parse time — a manifest either expands cleanly or not at all.

``fidelity = "paper"`` flags cells the paper-shape gates
(:mod:`repro.sweep.gates`) are asserted on during sweeps, so scenario
growth can't silently break fidelity; everything else defaults to
``"bench"`` (run, aggregate, but don't gate).
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ManifestError
from repro.sequence.mutate import VariantRates
from repro.data.spec import SUITE_RATES, DatasetSpec

#: Cell fidelity grades.  ``paper`` cells get the paper-shape gates
#: asserted on every sweep; ``bench`` cells only run and aggregate.
FIDELITY_PAPER, FIDELITY_BENCH = "paper", "bench"
_FIDELITIES = (FIDELITY_PAPER, FIDELITY_BENCH)

#: DatasetSpec fields a manifest may override directly (everything that
#: shapes corpus content except the per-run axes and the rates bundle,
#: which has its own ``rates`` / ``rate_scale`` vocabulary).
SPEC_FIELDS = frozenset(
    f.name for f in fields(DatasetSpec)
    if f.name not in ("scenario", "scale", "seed", "rates")
)

#: VariantRates fields addressable from ``rates`` / ``rate_scale``.
RATE_FIELDS = frozenset(f.name for f in fields(VariantRates))

#: Keys with meaning to the manifest itself, not the spec.
_META_KEYS = frozenset({"description", "fidelity", "rates", "rate_scale"})


@dataclass(frozen=True)
class ManifestCell:
    """One expanded corpus: a named override bundle plus metadata.

    ``axes`` records which level of each axis produced a grid cell
    (empty for explicit cells); ``overrides`` are ready-to-apply
    :class:`DatasetSpec` keyword arguments (``rates`` already folded
    into a :class:`VariantRates`).
    """

    name: str
    description: str = ""
    overrides: Mapping = None  # type: ignore[assignment]
    fidelity: str = FIDELITY_BENCH
    axes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.overrides is None:
            object.__setattr__(self, "overrides", {})

    def spec(self, scale: float = 1.0, seed: int = 0) -> DatasetSpec:
        """The cell's :class:`DatasetSpec` at the given run axes."""
        return DatasetSpec(scenario=self.name, scale=scale, seed=seed,
                           **self.overrides)

    def digest(self) -> str:
        """Content digest of the cell's corpus at the default run axes."""
        return self.spec().digest()


@dataclass(frozen=True)
class Manifest:
    """A parsed, validated, fully-expanded scenario manifest."""

    name: str
    description: str
    #: axis name -> level names, in expansion (naming) order.
    axes: tuple[tuple[str, tuple[str, ...]], ...]
    #: every cell, grid cells first (expansion order) then explicit.
    cells: tuple[ManifestCell, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.cells)

    def cell_names(self) -> tuple[str, ...]:
        return tuple(cell.name for cell in self.cells)

    def cell(self, name: str) -> ManifestCell:
        for cell in self.cells:
            if cell.name == name:
                return cell
        known = ", ".join(sorted(self.cell_names()))
        raise ManifestError(
            f"manifest {self.name!r} has no cell {name!r}; known: {known}"
        )

    def paper_cells(self) -> tuple[ManifestCell, ...]:
        """Cells whose paper-shape fidelity is gated during sweeps."""
        return tuple(c for c in self.cells if c.fidelity == FIDELITY_PAPER)

    def digest_set(self) -> frozenset[str]:
        """The spec digests of every cell — the manifest's content
        identity (order-independent by construction)."""
        return frozenset(cell.digest() for cell in self.cells)


# -- parsing ----------------------------------------------------------


def _require_table(payload, context: str) -> dict:
    if not isinstance(payload, dict):
        raise ManifestError(f"{context} must be a table, got "
                            f"{type(payload).__name__}")
    return payload


@dataclass(frozen=True)
class _Level:
    """One parsed axis level (or explicit cell body)."""

    fields: Mapping[str, object]          # direct DatasetSpec overrides
    rates: Mapping[str, float]            # absolute VariantRates fields
    rate_scale: Mapping[str, float]       # multiplicative VariantRates
    description: str
    fidelity: str


def _parse_level(payload: dict, context: str) -> _Level:
    """Validate one level/cell table against the override vocabulary."""
    payload = _require_table(payload, context)
    unknown = set(payload) - SPEC_FIELDS - _META_KEYS
    if unknown:
        allowed = ", ".join(sorted(SPEC_FIELDS | _META_KEYS))
        raise ManifestError(
            f"{context}: unknown key(s) {', '.join(sorted(unknown))}; "
            f"allowed: {allowed}"
        )
    fidelity = payload.get("fidelity", FIDELITY_BENCH)
    if fidelity not in _FIDELITIES:
        raise ManifestError(
            f"{context}: fidelity must be one of {', '.join(_FIDELITIES)}, "
            f"got {fidelity!r}"
        )
    for key in ("rates", "rate_scale"):
        table = _require_table(payload.get(key, {}), f"{context}.{key}")
        bad = set(table) - RATE_FIELDS
        if bad:
            raise ManifestError(
                f"{context}.{key}: unknown rate field(s) "
                f"{', '.join(sorted(bad))}; allowed: "
                f"{', '.join(sorted(RATE_FIELDS))}"
            )
        for field, value in table.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ManifestError(
                    f"{context}.{key}.{field} must be a number, "
                    f"got {value!r}"
                )
    return _Level(
        fields={k: v for k, v in payload.items()
                if k in SPEC_FIELDS},
        rates=dict(payload.get("rates", {})),
        rate_scale=dict(payload.get("rate_scale", {})),
        description=str(payload.get("description", "")),
        fidelity=fidelity,
    )


def _merge_levels(parts: Iterable[tuple[str, _Level]], cell: str) -> _Level:
    """Compose the chosen level of every axis into one override bundle.

    Direct fields and absolute rates must come from at most one axis
    (a conflict is a manifest bug, not a precedence question);
    ``rate_scale`` multipliers compose multiplicatively.  A field both
    absolutely set and scaled is ambiguous and rejected.
    """
    fields_src: dict[str, str] = {}
    rates_src: dict[str, str] = {}
    merged_fields: dict[str, object] = {}
    merged_rates: dict[str, float] = {}
    merged_scale: dict[str, float] = {}
    descriptions: list[str] = []
    paper = True
    for axis, level in parts:
        for key, value in level.fields.items():
            if key in fields_src:
                raise ManifestError(
                    f"cell {cell!r}: axes {fields_src[key]!r} and "
                    f"{axis!r} both set {key!r}"
                )
            fields_src[key] = axis
            merged_fields[key] = value
        for key, value in level.rates.items():
            if key in rates_src:
                raise ManifestError(
                    f"cell {cell!r}: axes {rates_src[key]!r} and "
                    f"{axis!r} both set rates.{key}"
                )
            rates_src[key] = axis
            merged_rates[key] = value
        for key, value in level.rate_scale.items():
            merged_scale[key] = merged_scale.get(key, 1.0) * value
        if level.description:
            descriptions.append(level.description)
        paper = paper and level.fidelity == FIDELITY_PAPER
    ambiguous = set(merged_rates) & set(merged_scale)
    if ambiguous:
        raise ManifestError(
            f"cell {cell!r}: rate field(s) "
            f"{', '.join(sorted(ambiguous))} both set absolutely and "
            "scaled — pick one"
        )
    return _Level(
        fields=merged_fields, rates=merged_rates, rate_scale=merged_scale,
        description="; ".join(descriptions),
        fidelity=FIDELITY_PAPER if paper else FIDELITY_BENCH,
    )


def _level_overrides(level: _Level) -> dict:
    """Turn a merged level into :class:`DatasetSpec` keyword overrides,
    folding ``rates``/``rate_scale`` over the suite baseline."""
    overrides = dict(level.fields)
    if level.rates or level.rate_scale:
        rates = replace(SUITE_RATES, **level.rates)
        if level.rate_scale:
            rates = replace(rates, **{
                field: getattr(rates, field) * multiplier
                for field, multiplier in level.rate_scale.items()
            })
        overrides["rates"] = rates
    return overrides


def _make_cell(name: str, level: _Level,
               axes: tuple[tuple[str, str], ...], source: str) -> ManifestCell:
    cell = ManifestCell(
        name=name,
        description=level.description,
        overrides=_level_overrides(level),
        fidelity=level.fidelity,
        axes=axes,
    )
    try:
        cell.spec()  # validate the overrides eagerly, like the registry
    except Exception as error:
        raise ManifestError(
            f"{source}: cell {name!r} expands to an invalid spec: {error}"
        ) from error
    return cell


def parse_manifest(payload: dict, source: str = "<manifest>") -> Manifest:
    """Parse and expand an already-decoded TOML payload."""
    payload = _require_table(payload, source)
    unknown = set(payload) - {"manifest", "axes", "cells"}
    if unknown:
        raise ManifestError(
            f"{source}: unknown section(s) {', '.join(sorted(unknown))}; "
            "allowed: manifest, axes, cells"
        )
    meta = _require_table(payload.get("manifest", {}), f"{source}.manifest")
    name = meta.get("name")
    if not name or not isinstance(name, str):
        raise ManifestError(f"{source}: [manifest] needs a string 'name'")
    description = str(meta.get("description", ""))

    axes_payload = _require_table(payload.get("axes", {}), f"{source}.axes")
    cells_payload = _require_table(payload.get("cells", {}), f"{source}.cells")
    if not axes_payload and not cells_payload:
        raise ManifestError(f"{source}: manifest {name!r} declares neither "
                            "axes nor cells")

    # Canonical axis order: explicit axis_order if given, else sorted —
    # never TOML table order, so expansion is order-independent.
    axis_names = sorted(axes_payload)
    order = meta.get("axis_order")
    if order is not None:
        if sorted(order) != axis_names:
            raise ManifestError(
                f"{source}: axis_order {order!r} must name every axis "
                f"exactly once (axes: {', '.join(axis_names)})"
            )
        axis_names = list(order)

    axes: list[tuple[str, tuple[str, ...]]] = []
    parsed_axes: list[list[tuple[str, str, _Level]]] = []
    for axis in axis_names:
        levels = _require_table(axes_payload[axis], f"{source}.axes.{axis}")
        if not levels:
            raise ManifestError(f"{source}: axis {axis!r} has no levels")
        axes.append((axis, tuple(levels)))
        parsed_axes.append([
            (axis, level_name,
             _parse_level(body, f"{source}.axes.{axis}.{level_name}"))
            for level_name, body in levels.items()
        ])

    cells: list[ManifestCell] = []
    seen: dict[str, str] = {}

    def add(cell: ManifestCell, origin: str) -> None:
        if cell.name in seen:
            raise ManifestError(
                f"{source}: duplicate cell {cell.name!r} "
                f"({seen[cell.name]} vs {origin})"
            )
        seen[cell.name] = origin
        cells.append(cell)

    if parsed_axes:
        for combo in product(*parsed_axes):
            cell_name = "-".join(level_name for _, level_name, _ in combo)
            merged = _merge_levels(
                [(axis, level) for axis, _, level in combo], cell_name
            )
            add(
                _make_cell(
                    cell_name, merged,
                    tuple((axis, level_name) for axis, level_name, _ in combo),
                    source,
                ),
                "grid",
            )

    for cell_name, body in cells_payload.items():
        level = _parse_level(body, f"{source}.cells.{cell_name}")
        add(_make_cell(cell_name, level, (), source), "cells")

    return Manifest(name=name, description=description, axes=tuple(axes),
                    cells=tuple(cells), source=source)


def loads_manifest(text: str, source: str = "<string>") -> Manifest:
    """Parse a manifest from TOML text."""
    try:
        payload = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ManifestError(f"{source}: invalid TOML: {error}") from error
    return parse_manifest(payload, source=source)


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest from a TOML file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ManifestError(f"cannot read manifest {path}: {error}") from error
    return loads_manifest(text, source=str(path))


# -- the committed manifest directory ---------------------------------


def default_manifest_dir() -> Path:
    """``$REPRO_MANIFEST_DIR`` or ``<repo>/benchmarks/manifests``."""
    override = os.environ.get("REPRO_MANIFEST_DIR")
    if override:
        return Path(override)
    # manifest.py -> data -> repro -> src -> repository root
    return Path(__file__).parents[3] / "benchmarks" / "manifests"


def available_manifests() -> tuple[str, ...]:
    """Names of the committed manifests (sorted)."""
    root = default_manifest_dir()
    if not root.is_dir():
        return ()
    return tuple(sorted(p.stem for p in root.glob("*.toml")))


def resolve_manifest(name_or_path: str | Path) -> Manifest:
    """Load a manifest by committed name (``matrix``) or explicit path."""
    candidate = Path(name_or_path)
    if candidate.suffix == ".toml" or candidate.exists():
        return load_manifest(candidate)
    path = default_manifest_dir() / f"{name_or_path}.toml"
    if not path.exists():
        known = ", ".join(available_manifests()) or "(none committed)"
        raise ManifestError(
            f"unknown manifest {name_or_path!r}; known: {known}"
        )
    return load_manifest(path)


#: The manifest the scenario registry itself expands from.
SUITE_MANIFEST = "suite"


def install_manifest(manifest: Manifest | str | Path) -> Manifest:
    """Register every cell of *manifest* as a runtime scenario.

    The scenario registry is the runtime lookup the harness, executor
    and serve layers resolve names through; installing a manifest makes
    its cells addressable (``repro run --scenario pop16-div2x-...``).
    Re-installing is idempotent; a cell whose name collides with a
    differently-parameterized registered scenario raises.
    """
    from repro.data import scenarios

    if not isinstance(manifest, Manifest):
        manifest = resolve_manifest(manifest)
    for cell in manifest.cells:
        existing = scenarios.SCENARIO_REGISTRY.get(cell.name)
        if existing is not None:
            if existing.spec().digest() != cell.digest():
                raise ManifestError(
                    f"manifest {manifest.name!r} cell {cell.name!r} "
                    "collides with an already-registered scenario of "
                    "different content"
                )
            continue
        scenarios.register_scenario(cell)
    return manifest
