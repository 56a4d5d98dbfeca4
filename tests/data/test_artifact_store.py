"""The dataset artifact store: resolution levels, eviction, derivations,
maintenance, and the compat shim."""

import gc
import pickle

import pytest

from repro.data import (
    ArtifactStore,
    DatasetSpec,
    corpus,
    derivation,
    ensure_corpus,
    scenario_spec,
    use_store,
)
from repro.data.store import BUILT, DISK, MEMORY
from repro.errors import DatasetError
from repro.obs import metrics

#: A deliberately tiny corpus so store tests stay fast.
SMALL = DatasetSpec(genome_length=1200, n_haplotypes=3, short_reads=20,
                    long_reads=4, long_read_length=400)


def small(**overrides):
    import dataclasses

    return dataclasses.replace(SMALL, **overrides)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path)


class TestResolution:
    def test_cold_builds_then_memory_then_disk(self, store):
        data, origin = store.fetch(SMALL)
        assert origin == BUILT
        again, origin = store.fetch(SMALL)
        assert origin == MEMORY
        assert again is data  # identity preserved while in memory
        store.evict_memory()
        loaded, origin = store.fetch(SMALL)
        assert origin == DISK
        assert loaded.graph.node_count == data.graph.node_count

    def test_distinct_specs_distinct_artifacts(self, store):
        a, _ = store.fetch(SMALL)
        b, _ = store.fetch(small(seed=1))
        assert a.graph.node_count != 0 and b.graph.node_count != 0
        assert store.corpus_dir(SMALL) != store.corpus_dir(small(seed=1))

    def test_meta_sidecar_written(self, store):
        import json

        store.fetch(SMALL)
        meta = json.loads((store.corpus_dir(SMALL) / "meta.json").read_text())
        assert meta["digest"] == SMALL.digest()
        assert meta["spec"]["genome_length"] == SMALL.genome_length
        assert meta["corpus_bytes"] > 0

    def test_corrupt_pickle_is_a_miss_and_rebuilds(self, store):
        store.fetch(SMALL)
        store.evict_memory()
        store.corpus_path(SMALL).write_bytes(b"garbage")
        _, origin = store.fetch(SMALL)
        assert origin == BUILT

    def test_resolution_metrics_emitted(self, store):
        registry = metrics.MetricsRegistry()
        with metrics.use(registry):
            store.fetch(SMALL)
            store.fetch(SMALL)
        counters = registry.as_dict()["counters"]
        assert counters["data.store.builds{kind=corpus,scenario=default}"] == 1
        assert counters[
            "data.store.hits{kind=corpus,level=memory,scenario=default}"
        ] == 1


class TestMemoryLayer:
    def test_ring_keeps_identity_for_recent_entries(self, store):
        assert store.corpus(SMALL) is store.corpus(SMALL)

    def test_old_entries_become_collectable(self, tmp_path):
        """Unlike the old ``lru_cache``, corpora that leave the recency
        ring are reclaimed by the garbage collector."""
        store = ArtifactStore(tmp_path, memory_slots=1)
        store.fetch(SMALL)
        assert len(store._memory) == 1
        store.fetch(small(seed=1))  # evicts SMALL from the strong ring
        gc.collect()
        assert f"corpus/{SMALL.digest()}" not in store._memory
        # ...but the disk artifact still serves it without a rebuild.
        _, origin = store.fetch(SMALL)
        assert origin == DISK

    def test_evict_memory_keeps_disk(self, store):
        store.fetch(SMALL)
        store.evict_memory()
        _, origin = store.fetch(SMALL)
        assert origin == DISK


class TestDerived:
    def test_derivation_cached_on_disk(self, store):
        value, origin = store.fetch_derived(SMALL, "tsu_pairs", pair_length=50)
        assert origin == BUILT
        assert len(value) == 12  # max(4, 12 * scale) at scale 1.0
        again, origin = store.fetch_derived(SMALL, "tsu_pairs", pair_length=50)
        assert origin == MEMORY and again is value
        store.evict_memory()
        loaded, origin = store.fetch_derived(SMALL, "tsu_pairs", pair_length=50)
        assert origin == DISK and loaded == value

    def test_params_key_the_artifact(self, store):
        a = store.derived(SMALL, "tsu_pairs", pair_length=50)
        b = store.derived(SMALL, "tsu_pairs", pair_length=60)
        assert a != b

    def test_unknown_derivation_rejected(self, store):
        with pytest.raises(DatasetError):
            store.derived(SMALL, "nope")

    def test_version_bump_rebuilds(self, store):
        calls = []

        @derivation("_test_versioned")
        def _derive(data, spec):
            calls.append(1)
            return len(data.assemblies)

        try:
            store.derived(SMALL, "_test_versioned")
            store.evict_memory()
            store.derived(SMALL, "_test_versioned")
            assert len(calls) == 1  # disk hit, not a rebuild
            from repro.data.derive import DERIVATIONS
            import dataclasses

            DERIVATIONS["_test_versioned"] = dataclasses.replace(
                DERIVATIONS["_test_versioned"], version=2
            )
            store.derived(SMALL, "_test_versioned")
            assert len(calls) == 2  # new version, new digest
        finally:
            from repro.data.derive import DERIVATIONS

            DERIVATIONS.pop("_test_versioned", None)

    def test_corpus_free_derivation_builds_no_corpus(self, store):
        store.derived(SMALL, "tsu_pairs", pair_length=30)
        assert not store.corpus_path(SMALL).exists()


class TestMaintenance:
    def test_entries_lists_scenarios(self, store):
        store.fetch(SMALL)
        store.fetch(scenario_spec("divergent").with_run_axes(0.05, 0))
        entries = store.entries()
        assert {e["spec"]["scenario"] for e in entries} == \
            {"default", "divergent"}
        assert all(e["disk_bytes"] > 0 for e in entries)

    def test_gc_keeps_current_generation(self, store):
        store.fetch(SMALL)
        removed, _freed = store.gc()
        assert removed == 0
        assert store.corpus_path(SMALL).exists()

    def test_gc_removes_stale_generation(self, store, monkeypatch):
        import json

        store.fetch(SMALL)
        meta_path = store.corpus_dir(SMALL) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["generator_version"] = -1
        meta_path.write_text(json.dumps(meta))
        removed, freed = store.gc()
        assert removed == 1 and freed > 0
        assert not store.corpus_dir(SMALL).exists()

    def test_gc_everything(self, store):
        store.fetch(SMALL)
        removed, _ = store.gc(everything=True)
        assert removed == 1
        _, origin = store.fetch(SMALL)
        assert origin == BUILT


class TestCompatShim:
    """The corpus entry points callers use resolve through the store."""

    def test_suite_data_resolves_through_store(self, tmp_path):
        with use_store(ArtifactStore(tmp_path)) as store:
            data = corpus("default", 0.05, 0)
            assert data is corpus("default", 0.05, 0)
            assert store.corpus_path(
                scenario_spec("default", scale=0.05, seed=0)
            ).exists()

    def test_shim_cache_is_bounded(self, tmp_path):
        """A scale sweep must not pin every corpus for process lifetime
        (the old ``lru_cache(maxsize=4)`` regression)."""
        store = ArtifactStore(tmp_path, memory_slots=2)
        with use_store(store):
            for scale in (0.05, 0.06, 0.07, 0.08):
                corpus("default", scale, 0)
        gc.collect()
        alive = sum(1 for _ in store._memory.values())
        assert alive <= 2

    def test_ensure_corpus_prebuilds(self, tmp_path):
        with use_store(ArtifactStore(tmp_path)) as store:
            _, origin = ensure_corpus(SMALL)
            assert origin == BUILT
            assert store.corpus_path(SMALL).exists()


class TestAtomicity:
    def test_artifacts_readable_by_plain_pickle(self, store):
        data, _ = store.fetch(SMALL)
        raw = pickle.loads(store.corpus_path(SMALL).read_bytes())
        assert raw.graph.node_count == data.graph.node_count
