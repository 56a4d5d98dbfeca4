"""The scenario registry: named corpora the suite can run against.

A *scenario* is a :class:`~repro.data.manifest.ManifestCell`: a named
bundle of :class:`~repro.data.spec.DatasetSpec` parameter overrides —
the graph-variation axes of Figure 11 and of *The design and
construction of reference pangenome graphs* (sample count and
divergence shape the graph) made selectable: ``repro run
--scenario dense-pop`` re-runs any study against a different corpus,
and the scenario name is threaded through :class:`KernelReport`
metadata and the result store's cache key so per-scenario figures never
collide.

The registry is a **runtime view over declarative manifests**
(:mod:`repro.data.manifest`): importing this module expands the
committed ``benchmarks/manifests/suite.toml`` — the five historical
scenarios, bit-identical to the old hand-written registrations — and
``repro sweep`` installs whole manifest grids on top.  Registering a
one-off workload programmatically is still one
:func:`register_scenario` call; the registry mirrors
``KERNEL_REGISTRY`` / ``STUDY_REGISTRY``.
"""

from __future__ import annotations

from repro.data.manifest import ManifestCell
from repro.data.spec import DatasetSpec
from repro.errors import DatasetError

#: name -> ManifestCell, in registration order (display order).
SCENARIO_REGISTRY: dict[str, ManifestCell] = {}


def register_scenario(scenario: ManifestCell) -> ManifestCell:
    """Add *scenario* to the registry (unique names enforced)."""
    if not scenario.name:
        raise DatasetError("scenario has no name")
    if scenario.name in SCENARIO_REGISTRY:
        raise DatasetError(f"duplicate scenario name {scenario.name!r}")
    scenario.spec()  # validate the overrides eagerly
    SCENARIO_REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> ManifestCell:
    """Look up a registered scenario by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_REGISTRY))
        raise DatasetError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(SCENARIO_REGISTRY)


def scenario_spec(name: str, scale: float = 1.0, seed: int = 0) -> DatasetSpec:
    """The :class:`DatasetSpec` for a registered scenario.

    Validates the run axes up front: a non-positive ``scale`` raises a
    :class:`~repro.errors.DatasetError` naming the scenario instead of
    surfacing as a bare spec-construction failure downstream.
    """
    scenario = get_scenario(name)
    if not scale > 0:
        raise DatasetError(
            f"scenario {name!r} scale must be > 0, got {scale!r}"
        )
    return scenario.spec(scale=scale, seed=seed)


def _install_suite_manifest() -> None:
    """Populate the registry from the committed suite manifest (the
    compat view: same five scenarios, now declaratively sourced)."""
    from repro.data import manifest as _manifest

    _manifest.install_manifest(
        _manifest.load_manifest(
            _manifest.default_manifest_dir()
            / f"{_manifest.SUITE_MANIFEST}.toml"
        )
    )


_install_suite_manifest()
