"""The result store's sharded layout: LRU eviction, budgets, index
resilience, gc."""

from __future__ import annotations

from serveutil import make_job, ok_report

from repro.harness.store import ResultStore, job_digest
from repro.obs import metrics as obs_metrics
from repro.serve.shards import ShardedResultStore


def populate(store: ResultStore, count: int, **job_kwargs) -> list:
    """Save *count* distinct reports; returns their jobs in save order."""
    jobs = [make_job(seed=seed, **job_kwargs) for seed in range(count)]
    for job in jobs:
        store.save(job, ok_report(job))
    return jobs


class TestShardedLayout:
    def test_entries_land_in_digest_prefix_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        path = store.save(job, ok_report(job))
        digest = job_digest(job)
        assert path == tmp_path / digest[:2] / f"{digest}.json"
        assert path.is_file()
        assert (tmp_path / "index.json").is_file()

    def test_load_roundtrip_across_instances(self, tmp_path):
        job = make_job(seed=11)
        ResultStore(tmp_path).save(job, ok_report(job))
        loaded = ResultStore(tmp_path).load(job)
        assert loaded is not None
        assert loaded.kernel == job.kernel
        assert loaded.error is None

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load(make_job()) is None

    def test_failed_reports_are_never_stored(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        assert store.save(job, ok_report(job, error="RuntimeError: x")) is None
        assert store.load(job) is None
        assert store.entries() == []

    def test_clear_removes_shards_and_index(self, tmp_path):
        store = ResultStore(tmp_path)
        populate(store, 3)
        assert store.clear() == 3
        assert not (tmp_path / "index.json").exists()
        assert not any(tmp_path.glob("??/*.json"))
        assert store.entries() == []


class TestLRUEviction:
    def test_least_recently_used_evicted_first(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        first, second = populate(store, 2)
        assert store.load(first) is not None  # touch: first is now MRU
        third = make_job(seed=2)
        store.save(third, ok_report(third))  # over budget -> evict LRU
        assert store.load(second) is None
        assert store.load(first) is not None
        assert store.load(third) is not None
        assert len(store.entries()) == 2

    def test_entries_listed_most_recent_first(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = populate(store, 3)
        store.load(jobs[0])
        listed = store.entries()
        assert listed[0]["digest"] == job_digest(jobs[0])
        assert {meta["digest"] for meta in listed} == {
            job_digest(job) for job in jobs
        }

    def test_byte_budget_enforced(self, tmp_path):
        unbounded = ResultStore(tmp_path)
        populate(unbounded, 4)
        total = unbounded.total_bytes()
        per_entry = total // 4
        bounded = ResultStore(tmp_path, max_bytes=2 * per_entry + 1)
        removed, freed = bounded.evict()
        assert removed == 2
        assert freed > 0
        assert bounded.total_bytes() <= 2 * per_entry + 1
        assert len(bounded.entries()) == 2

    def test_eviction_metrics(self, tmp_path):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            store = ResultStore(tmp_path, max_entries=1)
            populate(store, 3)  # each over-budget save evicts in place
        assert len(store.entries()) == 1
        exported = registry.as_dict()
        assert exported["counters"]["serve.cache.evictions"] == 2
        assert exported["gauges"]["serve.cache.bytes"] > 0

    def test_env_budget_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        store = ResultStore(tmp_path)
        assert store.max_entries == 7
        assert store.max_bytes is None  # unparsable -> unbounded


class TestIndexResilience:
    def test_corrupt_index_is_rebuilt_from_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = populate(store, 3)
        (tmp_path / "index.json").write_text("}}garbage{{")
        fresh = ResultStore(tmp_path)
        assert len(fresh.entries()) == 3
        for job in jobs:
            assert fresh.load(job) is not None

    def test_missing_index_is_rebuilt(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = populate(store, 2)
        (tmp_path / "index.json").unlink()
        assert len(ResultStore(tmp_path).entries()) == 2
        assert ResultStore(tmp_path).load(jobs[0]) is not None


class TestGC:
    def test_gc_drops_unservable_and_adopts_orphans(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = populate(store, 2)
        # An unservable shard file (corrupt payload)...
        bad = tmp_path / "ab" / "abadcafe0badcafe.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_text("{corrupt")
        # ...an orphan index row (file deleted behind the index)...
        store.path(jobs[0]).unlink()
        # ...and an orphan file (a valid report on disk, never indexed).
        orphan_job = make_job(seed=77)
        elsewhere = ResultStore(tmp_path / "elsewhere")
        written = elsewhere.save(orphan_job, ok_report(orphan_job))
        orphan_path = store.path(orphan_job)
        orphan_path.parent.mkdir(exist_ok=True)
        orphan_path.write_text(written.read_text())

        removed, _freed = store.gc()
        assert removed >= 1
        assert not bad.exists()
        digests = {meta["digest"] for meta in store.entries()}
        assert job_digest(jobs[0]) not in digests   # orphan row dropped
        assert job_digest(jobs[1]) in digests
        assert job_digest(orphan_job) in digests    # orphan file adopted
        assert store.load(orphan_job) is not None

    def test_gc_everything_clears_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        populate(store, 3)
        removed, freed = store.gc(everything=True)
        assert removed == 3
        assert freed > 0
        assert store.entries() == []


class TestDefaultStore:
    def test_default_result_store_is_sharded_and_env_rooted(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = ResultStore()
        assert isinstance(store, ShardedResultStore)
        assert store.root == tmp_path
        job = make_job(seed=42)
        store.save(job, ok_report(job))
        assert store.path(job).parent.name == job_digest(job)[:2]
