"""The cached result store: digests, round-trips, compatibility."""

import itertools
import json
import os
import sys
import threading
from dataclasses import asdict
from types import SimpleNamespace

import pytest

import repro
from repro.harness import store as store_module
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
        """A cache laid out as ``<digest[:2]>/<digest>.json`` is served and
        listed without being rewritten.  A legacy ``index.json`` LRU index
        beside it is foreign data: left byte-identical.  The serve-layer
        name is the one every version of the sharded store has answered
        to."""
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
        os.utime(entry, ns=(OLD_STAMP, OLD_STAMP))
        legacy = tmp_path / "index.json"
        legacy.write_text(json.dumps({
            "clock": 1,
            "entries": {digest: {
                "bytes": entry.stat().st_size, "kernel": "gbwt",
                "scenario": "default", "scale": 0.25,
                "studies": ["timing"], "used": 1,
            }},
        }, sort_keys=True))
        written = entry.read_text()
        legacy_bytes = legacy.read_bytes()

        store = ShardedResultStore(tmp_path)
        assert store.load(job) == report
        listed = store.entries()
        assert [meta["digest"] for meta in listed] == [digest]
        assert listed[0]["kernel"] == "gbwt"
        assert listed[0]["used"] > OLD_STAMP  # the hit moved it forward
        assert entry.read_text() == written
        assert legacy.read_bytes() == legacy_bytes


#: An mtime (ns) older than any stamp the store writes.
OLD_STAMP = 10**18


def _snapshot(root):
    """``{relative path: (content, mtime_ns)}`` of everything under *root*
    (directories read as ``None`` content)."""
    return {
        str(path.relative_to(root)): (
            None if path.is_dir() else path.read_bytes(),
            path.stat().st_mtime_ns,
        )
        for path in root.rglob("*")
    }


class TestRecency:
    def test_hit_changes_nothing_but_the_entry_mtime(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _job()
        path = store.save(job, KernelReport(kernel="gbwt"))
        os.utime(path, ns=(OLD_STAMP, OLD_STAMP))
        before = _snapshot(tmp_path)
        assert store.load(job) is not None
        after = _snapshot(tmp_path)
        name = str(path.relative_to(tmp_path))
        entry_before, entry_after = before.pop(name), after.pop(name)
        assert after == before
        assert entry_after[0] == entry_before[0]
        assert entry_after[1] > OLD_STAMP

    def test_lru_order_holds_within_one_millisecond(self, tmp_path,
                                                    monkeypatch):
        """Save A, save B, hit A, save C with ``max_entries=2`` evicts B
        even when all four calls land inside one millisecond (one tick
        of a coarse filesystem clock).  A tie on mtime would fall to the
        digest, which here orders A first."""
        ticks = itertools.count(1_700_000_000_000_000_000, 1_000)
        monkeypatch.setattr(store_module, "time",
                            SimpleNamespace(time_ns=lambda: next(ticks)))
        store = ResultStore(tmp_path, max_entries=2)
        a, b = sorted([_job(seed=0), _job(seed=1)], key=job_digest)
        c = _job(seed=2)
        store.save(a, KernelReport(kernel="gbwt"))
        store.save(b, KernelReport(kernel="gbwt"))
        assert store.load(a) is not None
        store.save(c, KernelReport(kernel="gbwt"))
        stamps = [meta["used"] for meta in store.entries()]
        assert max(stamps) - min(stamps) < 1_000_000
        assert store.load(b) is None
        assert store.load(a) is not None
        assert store.load(c) is not None


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


class TestConcurrency:
    def test_threads_saving_loading_and_evicting_share_one_root(
            self, tmp_path):
        """With no lock, concurrent saves, hits, evictions and clears
        never raise, never serve another job's (or a torn) report, and
        leave the store within its budget."""
        store = ResultStore(tmp_path, max_entries=4)
        errors = []

        def work(worker):
            try:
                jobs = [_job(seed=100 * worker + i) for i in range(12)]
                for i, job in enumerate(jobs):
                    store.save(job, KernelReport(kernel="gbwt", seed=job.seed))
                    for seen in jobs[:i + 1]:
                        report = store.load(seen)
                        assert report is None or report.seed == seen.seed
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        def clear():
            try:
                for _ in range(200):
                    store.clear()
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(worker,))
                       for worker in range(4)]
            threads.append(threading.Thread(target=clear))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.usage()[0] <= 4


def _jobs_in_distinct_shards(count):
    jobs, shards = [], set()
    for seed in itertools.count():
        job = _job(seed=seed)
        if job_digest(job)[:2] not in shards:
            shards.add(job_digest(job)[:2])
            jobs.append(job)
        if len(jobs) == count:
            return jobs


class TestShardDirectories:
    def test_evicting_a_shards_last_entry_removes_the_shard(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=1)
        first, second, third = _jobs_in_distinct_shards(3)
        first_path = store.save(first, KernelReport(kernel="gbwt"))
        second_path = store.save(second, KernelReport(kernel="gbwt"))
        assert not first_path.parent.exists()
        note = second_path.parent / "notes.txt"
        note.write_text("kept")
        store.save(third, KernelReport(kernel="gbwt"))
        assert not second_path.exists()
        assert note.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {second_path.parent.name, job_digest(third)[:2]})

    def test_gc_and_clear_leave_no_empty_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(_job(), KernelReport(kernel="gbwt"))
        path.write_text("{torn")
        assert store.gc() == (1, len("{torn"))
        assert not path.parent.exists()
        for name in ("3f", "a0", "zz"):  # "zz" is not a shard name
            (tmp_path / name).mkdir()
        store.clear()
        assert [p.name for p in tmp_path.iterdir()] == ["zz"]


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
