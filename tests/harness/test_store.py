"""The cached result store: digests, round-trips, compatibility."""

import json
from dataclasses import asdict

import pytest

import repro
from repro.harness.executor import Job
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.harness.store import ResultStore, job_digest, job_key
from repro.uarch.cache import MACHINE_A, MACHINE_B


def _job(**overrides):
    defaults = dict(kernel="gbwt", studies=("timing",), scale=0.25, seed=0,
                    cache_config=MACHINE_B)
    defaults.update(overrides)
    return Job(**defaults)


class TestDigest:
    def test_stable(self):
        assert job_digest(_job()) == job_digest(_job())

    def test_study_order_is_normalized(self):
        a = job_digest(_job(studies=("timing", "topdown")))
        b = job_digest(_job(studies=("topdown", "timing")))
        assert a == b

    def test_parameters_change_the_digest(self):
        base = job_digest(_job())
        assert job_digest(_job(kernel="tsu")) != base
        assert job_digest(_job(scale=0.5)) != base
        assert job_digest(_job(seed=1)) != base
        assert job_digest(_job(studies=("cache",))) != base
        assert job_digest(_job(cache_config=MACHINE_A)) != base
        assert job_digest(_job(scenario="divergent")) != base

    def test_default_scenario_in_key(self):
        """The scenario is always part of the cache key (reports from a
        non-default corpus never collide with default ones)."""
        from repro.harness.store import job_key

        assert job_key(_job())["scenario"] == "default"

    def test_backend_changes_the_digest(self):
        assert (job_digest(_job(backend="scalar"))
                != job_digest(_job(backend="vectorized")))

    def test_backend_resolved_before_hashing(self):
        """A job carrying '' (kernel default) and one naming the default
        explicitly share a cache entry; gpu-native kernels key as gpu
        even when the job never set a backend."""
        from repro.harness.store import job_key

        assert (job_digest(_job())
                == job_digest(_job(backend="vectorized")))
        assert job_key(_job(kernel="tsu"))["backend"] == "gpu"

    def test_unregistered_kernel_keys_on_raw_backend(self):
        """Foreign job records must stay digestible — there is no
        registry default to resolve to."""
        from repro.harness.store import job_key

        assert job_key(_job(kernel="not-registered"))["backend"] == ""
        assert (job_key(_job(kernel="not-registered", backend="simd"))
                ["backend"] == "simd")


#: ``job_digest`` for a fixed job set at a pinned package version.  A
#: change here re-keys every existing cache: it must be deliberate.
GOLDEN_DIGESTS = [
    (_job(studies=("timing",)), "0e83f4627047653a"),
    (_job(backend="vectorized"), "0e83f4627047653a"),
    (_job(backend="scalar"), "d78dcbd6874d7744"),
    (_job(kernel="tsu", studies=("timing", "gpu")), "42903156892c9039"),
    (_job(kernel="tsu", studies=("gpu", "timing"), backend="gpu"),
     "42903156892c9039"),
    (_job(kernel="gssw", studies=("cache",), cache_config=MACHINE_A),
     "aaaf1a7c33d0de20"),
    (_job(kernel="gssw", studies=("cache",), cache_config=MACHINE_B),
     "08842f21153695e3"),
    (_job(scenario="divergent"), "62aa88812335742f"),
    (_job(scale=0.5), "e3bf0a121ef43985"),
    (_job(seed=1), "247297b0da0898b7"),
    (_job(kernel="pgsgd", studies=("topdown", "instmix", "timing")),
     "3399948702564930"),
    (_job(kernel="pgsgd", studies=("timing", "topdown", "instmix")),
     "3399948702564930"),
]


class TestGoldenDigests:
    @pytest.mark.parametrize("index", range(len(GOLDEN_DIGESTS)))
    def test_digest_is_pinned(self, index, monkeypatch):
        monkeypatch.setattr(repro, "__version__", "0.0.0-golden")
        job, expected = GOLDEN_DIGESTS[index]
        assert job_digest(job) == expected


class TestExistingCacheServed:
    def test_sharded_cache_on_disk_is_served_as_is(self, tmp_path):
        """A cache laid out as ``<digest[:2]>/<digest>.json`` plus an
        ``index.json`` LRU index is served and listed without being
        rewritten.  The serve-layer name is the one every version of the
        sharded store has answered to."""
        from repro.serve import ShardedResultStore

        job = _job(seed=3)
        digest = job_digest(job)
        report = KernelReport(kernel="gbwt", wall_seconds=0.5,
                              inputs_processed=7, scale=0.25, seed=3,
                              machine="machine_b")
        entry = tmp_path / digest[:2] / f"{digest}.json"
        entry.parent.mkdir()
        entry.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "job": job_key(job),
            "report": asdict(report),
        }, indent=2, sort_keys=True))
        (tmp_path / "index.json").write_text(json.dumps({
            "clock": 1,
            "entries": {digest: {
                "bytes": entry.stat().st_size, "kernel": "gbwt",
                "scenario": "default", "scale": 0.25,
                "studies": ["timing"], "used": 1,
            }},
        }, sort_keys=True))
        written = entry.read_text()

        store = ShardedResultStore(tmp_path)
        assert store.load(job) == report
        listed = store.entries()
        assert [meta["digest"] for meta in listed] == [digest]
        assert listed[0]["kernel"] == "gbwt"
        assert listed[0]["used"] == 2  # the hit bumped the LRU clock
        assert entry.read_text() == written


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        report = KernelReport(kernel="gbwt", wall_seconds=1.5,
                              inputs_processed=10, work={"w": 2.0},
                              scale=0.25, machine="machine_b")
        path = store.save(job, report)
        assert path is not None and path.is_file()
        assert store.load(job) == report
        assert ResultStore(tmp_path).load(job) == report  # across instances

    def test_miss_when_absent(self, tmp_path):
        assert ResultStore(tmp_path).load(_job()) is None

    def test_miss_on_corrupt_file(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt"))
        store.path(job).write_text("not json {")
        assert store.load(job) is None

    def test_miss_on_other_schema_version(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt"))
        payload = json.loads(store.path(job).read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        store.path(job).write_text(json.dumps(payload))
        assert store.load(job) is None

    def test_unknown_report_fields_ignored(self, tmp_path):
        """Forward compatibility: a report written by newer code with
        extra fields still loads."""
        store = ResultStore(tmp_path)
        job = _job()
        store.save(job, KernelReport(kernel="gbwt", inputs_processed=5))
        payload = json.loads(store.path(job).read_text())
        payload["report"]["a_future_metric"] = 42
        store.path(job).write_text(json.dumps(payload))
        loaded = store.load(job)
        assert loaded is not None
        assert loaded.inputs_processed == 5

    def test_error_reports_never_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        assert store.save(job, KernelReport(kernel="gbwt", error="boom")) is None
        assert store.load(job) is None
        assert store.entries() == []

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(_job(), KernelReport(kernel="gbwt"))
        store.save(_job(seed=1), KernelReport(kernel="gbwt"))
        assert store.clear() == 2
        assert not (tmp_path / "index.json").exists()
        assert not any(tmp_path.glob("??/*.json"))
        assert store.load(_job()) is None
        assert store.entries() == []

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        store = ResultStore()
        assert store.root == tmp_path / "alt"
        job = _job()
        path = store.save(job, KernelReport(kernel="gbwt"))
        assert path == tmp_path / "alt" / job_digest(job)[:2] / path.name


def _plant_foreign_data(root):
    """Files under a cache root that the store does not own."""
    foreign = {
        root / "notes.json": "{}",
        root / "BENCH_sweep.json": "[]",
        root / "sweep" / "0123456789abcdef.json": "{}",
        root / "sweep" / "cells.txt": "default",
        root / "zz" / "0123456789abcdef.json": "{}",
    }
    for path, text in foreign.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return foreign


class TestForeignData:
    def test_fresh_instance_load_leaves_foreign_data(self, tmp_path):
        job = _job()
        ResultStore(tmp_path).save(job, KernelReport(kernel="gbwt"))
        foreign = _plant_foreign_data(tmp_path)
        store = ResultStore(tmp_path)
        assert store.load(job) is not None
        assert store.load(_job(seed=9)) is None
        assert [meta["digest"] for meta in store.entries()] == [
            job_digest(job)]
        for path, text in foreign.items():
            assert path.read_text() == text

    def test_clear_removes_only_store_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        foreign = _plant_foreign_data(tmp_path)
        path = store.save(_job(), KernelReport(kernel="gbwt"))
        assert store.clear() == 1
        assert not path.parent.exists()  # an emptied shard goes too
        path = store.save(_job(), KernelReport(kernel="gbwt"))
        shard_note = path.parent / "README"
        shard_note.write_text("kept")
        assert store.clear() == 1
        assert not path.exists()
        assert shard_note.read_text() == "kept"
        for foreign_path, text in foreign.items():
            assert foreign_path.read_text() == text
