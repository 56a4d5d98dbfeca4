"""The workload subsystem: declarative dataset specs, a shared on-disk
artifact store, and a scenario registry.

Where the suite's datasets come from (DESIGN.md "Workloads"):

* :mod:`repro.data.spec` — :class:`DatasetSpec`, the content-hashable
  description of one corpus (every parameter that shapes the graph and
  reads, plus the generator version);
* :mod:`repro.data.manifest` — declarative TOML scenario manifests
  under ``benchmarks/manifests/``: corpus axes whose cross-product
  expands into content-hashed cells (``repro sweep`` runs the grid);
* :mod:`repro.data.scenarios` — ``SCENARIO_REGISTRY``, the runtime view
  over the expanded suite manifest (``default``, ``dense-pop``,
  ``divergent``, ``long-read-heavy``, ``sv-rich``) selectable via
  ``repro run --scenario``; sweeps install further manifests on top;
* :mod:`repro.data.corpus` — the generators: :func:`build_corpus`
  (spec -> :class:`SuiteData`) and the shared derived-input generators;
* :mod:`repro.data.derive` — registry of cacheable corpus -> kernel
  input transforms (each kernel's "run the tool up until the kernel");
* :mod:`repro.data.store` — the content-addressed on-disk
  :class:`ArtifactStore` under ``benchmarks/datasets/`` with file
  locking (concurrent workers build once) and an evictable in-memory
  layer.

>>> from repro.data import corpus, scenario_names
>>> sorted(scenario_names())[:2]
['default', 'dense-pop']
"""

from repro.data.corpus import (
    SUITE_RATES,
    SuiteData,
    build_corpus,
    corpus_fingerprint,
    gbwt_queries,
    gbwt_queries_range,
    mutate_sequence,
    tsu_pairs,
    tsu_pairs_range,
)
from repro.data.derive import DERIVATIONS, Derivation, derivation, get_derivation
from repro.data.manifest import (
    Manifest,
    ManifestCell,
    available_manifests,
    default_manifest_dir,
    install_manifest,
    load_manifest,
    loads_manifest,
    parse_manifest,
    resolve_manifest,
)
from repro.data.scenarios import (
    SCENARIO_REGISTRY,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_spec,
)
from repro.data.spec import GENERATOR_VERSION, DatasetSpec
from repro.data.streaming import ChunkedSeries, active_chunk_items, streaming
from repro.data.store import (
    ArtifactStore,
    default_data_dir,
    default_store,
    ensure_corpus,
    set_default_store,
    use_store,
)


def corpus(scenario: str = "default", scale: float = 1.0,
           seed: int = 0) -> SuiteData:
    """The shared corpus for a named scenario, via the default store."""
    return default_store().corpus(scenario_spec(scenario, scale=scale,
                                                seed=seed))


__all__ = [
    "GENERATOR_VERSION", "DatasetSpec",
    "SCENARIO_REGISTRY", "get_scenario", "register_scenario",
    "scenario_names", "scenario_spec",
    "Manifest", "ManifestCell", "available_manifests",
    "default_manifest_dir", "install_manifest", "load_manifest",
    "loads_manifest", "parse_manifest", "resolve_manifest",
    "SUITE_RATES", "SuiteData", "build_corpus", "corpus",
    "corpus_fingerprint", "gbwt_queries", "gbwt_queries_range",
    "mutate_sequence", "tsu_pairs", "tsu_pairs_range",
    "DERIVATIONS", "Derivation", "derivation", "get_derivation",
    "ChunkedSeries", "active_chunk_items", "streaming",
    "ArtifactStore", "default_data_dir", "default_store", "ensure_corpus",
    "set_default_store", "use_store",
]
