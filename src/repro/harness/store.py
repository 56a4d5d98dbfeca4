"""The cached result store — the harness engine's third layer.

Reports are cached on disk keyed by a content digest of everything that
determines a job's outcome: kernel name, the (order-normalized) study
set, scale, seed, dataset scenario, the cache-hierarchy configuration,
and the package version.  ``run_suite(..., store=ResultStore())`` serves
cache hits, so the 14 benchmark figures stop re-characterizing the same
kernels once per figure, and a repeated run at identical parameters
executes nothing.

Layout (under ``benchmarks/results/cache/`` by default, overridable via
the ``REPRO_CACHE_DIR`` environment variable or the ``root`` argument)::

    benchmarks/results/cache/
        index.json            # {"clock", "entries": {digest: {...}}}
        index.lock            # flock target for cross-process updates
        3f/
            3fa1b2c3d4e5f607.json   # {"schema_version", "job", "report"}

* **Sharding** — ``<digest[:2]>/<digest>.json`` caps per-directory fanout
  at 256 shards regardless of sweep size.
* **LRU index** — every hit bumps a logical clock in ``index.json``;
  eviction removes the least-recently-used entries first.  The index is
  advisory: if it is missing or corrupt it is rebuilt by scanning the
  shards, and entry files remain plain per-report JSON.
* **Budget** — ``max_bytes`` / ``max_entries`` (or
  ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``) bound the
  store; a save that crosses the budget evicts inside its own index
  transaction.  ``serve.cache.evictions`` counts removals and
  ``serve.cache.bytes`` tracks the footprint.

The store owns only digest-named entries inside their two-hex shard
directories and ``index.json``; anything else under the root is left
alone.  Failed reports (``report.error`` set) are never cached: a crash
or timeout should re-execute on the next run, not stick.

Cross-process safety mirrors the dataset ``ArtifactStore``: index
read-modify-writes happen under an advisory ``flock`` (plus an
in-process mutex), and both index and entries are written atomically
(temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import repro
from repro.data.store import atomic_write_bytes, exclusive_lock
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.executor import Job

#: ``<digest>.json`` filenames the store owns inside a shard.
_DIGEST_NAME = re.compile(r"^[0-9a-f]{16}\.json$")

#: Index filename (lives next to the shards, never inside one).
INDEX_NAME = "index.json"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``<repo>/benchmarks/results/cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    # store.py -> harness -> repro -> src -> repository root
    return Path(__file__).parents[3] / "benchmarks" / "results" / "cache"


def job_key(job: "Job") -> dict:
    """The canonical key payload a job is cached under.

    ``dataset`` is the :class:`~repro.data.DatasetSpec` content digest
    the scenario resolves to *now*: scenarios are manifest-defined, so
    a name alone would go stale the moment a manifest edit (or a
    same-named cell from a different manifest) changed the corpus
    behind it.  Keying on the content digest makes such edits cache
    misses instead of silently-served stale reports.

    ``backend`` is resolved through the kernel registry before hashing,
    so a job carrying ``""`` (kernel default) and one carrying the
    explicit default name share an entry, while distinct backends of
    the same kernel never collide.
    """
    from repro.data import scenario_spec
    from repro.errors import KernelError
    from repro.kernels.base import resolve_backend

    requested = getattr(job, "backend", "")
    try:
        backend = resolve_backend(job.kernel, requested or None)
    except KernelError:
        # Unregistered kernel (test doubles, foreign job records): key
        # on the raw request — there is no default to resolve to.
        backend = requested
    return {
        "kernel": job.kernel,
        "studies": sorted(set(job.studies)),
        "scale": job.scale,
        "seed": job.seed,
        "scenario": job.scenario,
        "backend": backend,
        "dataset": scenario_spec(
            job.scenario, scale=job.scale, seed=job.seed
        ).digest(),
        "cache_config": asdict(job.cache_config),
        "package_version": repro.__version__,
    }


def _key_digest(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def job_digest(job: "Job") -> str:
    """Content digest (hex) identifying a job's cached report."""
    return _key_digest(job_key(job))


def _env_int(name: str) -> int | None:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        return None


class ResultStore:
    """Digest-prefix-sharded, LRU-bounded on-disk cache of
    :class:`KernelReport`\\ s.

    ``max_bytes`` / ``max_entries`` of ``None`` fall back to the
    ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``
    environment knobs; both unset means unbounded (shards and the LRU
    index still apply, eviction never triggers).
    """

    def __init__(self, root: str | Path | None = None,
                 max_bytes: int | None = None,
                 max_entries: int | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_int("REPRO_CACHE_MAX_BYTES"))
        self.max_entries = (max_entries if max_entries is not None
                            else _env_int("REPRO_CACHE_MAX_ENTRIES"))
        self._mutex = threading.Lock()

    # -- paths ---------------------------------------------------------

    def shard_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def path(self, job: "Job") -> Path:
        return self.shard_path(job_digest(job))

    @property
    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    @property
    def _lock_path(self) -> Path:
        return self.root / "index.lock"

    def _shard_entries(self) -> list[Path]:
        """Every digest-named entry file inside its own shard."""
        if not self.root.is_dir():
            return []
        return sorted(path for path in self.root.glob("??/*.json")
                      if _DIGEST_NAME.match(path.name)
                      and path.parent.name == path.name[:2])

    # -- index plumbing ------------------------------------------------

    def _read_index(self) -> dict:
        try:
            payload = json.loads(self._index_path.read_text())
        except (OSError, ValueError):
            payload = None
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("entries"), dict)):
            return self._rebuild_index()
        payload.setdefault("clock", 0)
        return payload

    def _rebuild_index(self) -> dict:
        """Reconstruct the LRU index by scanning the shards (used when
        ``index.json`` is missing or corrupt — the entries themselves
        are the source of truth)."""
        index: dict = {"clock": 0, "entries": {}}
        for entry in self._shard_entries():
            meta = self._entry_meta(entry)
            if meta is None:
                continue
            index["clock"] += 1
            meta["used"] = index["clock"]
            index["entries"][entry.stem] = meta
        return index

    @staticmethod
    def _entry_meta(path: Path) -> dict | None:
        """Index metadata for an entry file, or ``None`` if the file is
        not a compatible cached report."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema_version") != SCHEMA_VERSION):
            return None
        job = payload.get("job") or {}
        return {
            "bytes": path.stat().st_size,
            "kernel": job.get("kernel", "?"),
            "scenario": job.get("scenario", "?"),
            "scale": job.get("scale", "?"),
            "studies": job.get("studies", []),
        }

    @contextmanager
    def _index(self) -> Iterator[dict]:
        """Exclusive read-modify-write access to the on-disk index."""
        with self._mutex, exclusive_lock(self._lock_path):
            index = self._read_index()
            yield index
            atomic_write_bytes(self._index_path,
                               json.dumps(index, sort_keys=True).encode())
            metrics.gauge("serve.cache.bytes").set(float(sum(
                meta.get("bytes", 0) for meta in index["entries"].values()
            )))

    # -- load / save ----------------------------------------------------

    def load(self, job: "Job") -> KernelReport | None:
        """The cached report for *job*, or ``None`` on any miss
        (absent, unreadable, or written by an incompatible schema)."""
        digest = job_digest(job)
        try:
            payload = json.loads(self.shard_path(digest).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        record = payload.get("report")
        if not isinstance(record, dict) or "kernel" not in record:
            return None
        report = KernelReport.from_dict(record)
        if report.error is not None:
            return None
        self._touch(digest)
        return report

    def _touch(self, digest: str) -> None:
        with self._index() as index:
            meta = index["entries"].get(digest)
            if meta is None:  # on disk but unindexed; adopt it
                meta = self._entry_meta(self.shard_path(digest))
                if meta is None:
                    return
                index["entries"][digest] = meta
            index["clock"] += 1
            meta["used"] = index["clock"]

    def save(self, job: "Job", report: KernelReport) -> Path | None:
        """Cache *report* under *job*'s digest (no-op for failures),
        evicting least-recently-used entries if the budget is crossed."""
        if report.error is not None:
            return None
        key = job_key(job)
        digest = _key_digest(key)
        path = self.shard_path(digest)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "job": key,
            "report": asdict(report),
        }
        atomic_write_bytes(path, json.dumps(payload, indent=2,
                                            sort_keys=True).encode())
        with self._index() as index:
            index["clock"] += 1
            index["entries"][digest] = {
                "bytes": path.stat().st_size,
                "kernel": key["kernel"],
                "scenario": key["scenario"],
                "scale": key["scale"],
                "studies": key["studies"],
                "used": index["clock"],
            }
            self._evict_lru(index)
        return path

    # -- budget / eviction ---------------------------------------------

    def _over_budget(self, index: dict) -> bool:
        entries = index["entries"]
        if self.max_entries is not None and len(entries) > self.max_entries:
            return True
        if self.max_bytes is not None:
            total = sum(meta.get("bytes", 0) for meta in entries.values())
            if total > self.max_bytes:
                return True
        return False

    def _evict_lru(self, index: dict) -> tuple[int, int]:
        """Drop least-recently-used entries of a held *index* until
        within budget; returns ``(entries, bytes)`` removed."""
        removed = freed = 0
        if self.max_bytes is None and self.max_entries is None:
            return removed, freed
        entries = index["entries"]
        for digest in sorted(entries, key=lambda d: entries[d].get("used", 0)):
            if not self._over_budget(index):
                break
            meta = entries.pop(digest)
            self.shard_path(digest).unlink(missing_ok=True)
            removed += 1
            freed += meta.get("bytes", 0)
        if removed:
            metrics.counter("serve.cache.evictions").inc(removed)
        return removed, freed

    def evict(self) -> tuple[int, int]:
        """Drop least-recently-used entries until within budget; returns
        ``(entries, bytes)`` removed."""
        with self._index() as index:
            return self._evict_lru(index)

    # -- maintenance (repro cache {list,gc}) ----------------------------

    def total_bytes(self) -> int:
        with self._index() as index:
            return sum(meta.get("bytes", 0)
                       for meta in index["entries"].values())

    def entries(self) -> list[dict]:
        """Index metadata for every cached report, most recent first."""
        with self._index() as index:
            found = [{"digest": digest, **meta}
                     for digest, meta in index["entries"].items()]
        found.sort(key=lambda meta: -meta.get("used", 0))
        return found

    def gc(self, everything: bool = False) -> tuple[int, int]:
        """Remove unservable entries and enforce the budget; returns
        ``(entries, bytes)`` removed.

        Unservable means unreadable or written by a different report
        schema.  Orphan files (on disk but unindexed) are adopted into
        the index; orphan index rows (no file) are dropped.
        ``everything=True`` clears the store.
        """
        if everything:
            freed = self.total_bytes()
            return self.clear(), freed
        removed = freed = 0
        with self._index() as index:
            entries = index["entries"]
            on_disk = {path.stem: path for path in self._shard_entries()}
            for digest in list(entries):
                if digest not in on_disk:
                    del entries[digest]
            for digest, path in on_disk.items():
                meta = self._entry_meta(path)
                if meta is None:  # stale schema / corrupt: unservable
                    freed += path.stat().st_size
                    path.unlink(missing_ok=True)
                    entries.pop(digest, None)
                    removed += 1
                elif digest not in entries:
                    index["clock"] += 1
                    meta["used"] = index["clock"]
                    entries[digest] = meta
            evicted, evicted_bytes = self._evict_lru(index)
        return removed + evicted, freed + evicted_bytes

    def clear(self) -> int:
        """Delete every cached report and the index; returns the number
        of entries removed.  Foreign files under the root survive, and so
        does any shard directory they keep non-empty."""
        if not self.root.is_dir():
            return 0
        with self._mutex, exclusive_lock(self._lock_path):
            found = self._shard_entries()
            for path in found:
                path.unlink(missing_ok=True)
            for shard in {path.parent for path in found}:
                try:
                    shard.rmdir()
                except OSError:  # still holds files the store doesn't own
                    pass
            self._index_path.unlink(missing_ok=True)
        return len(found)
