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
        3f/
            3fa1b2c3d4e5f607.json   # {"schema_version", "job", "report"}

The entry files are the store's whole state; everything else is worked
out from them:

* **Sharding** — ``<digest[:2]>/<digest>.json`` caps per-directory fanout
  at 256 shards regardless of sweep size.
* **Recency** — a save or a hit stamps the entry's mtime with the
  process clock (``time.time_ns()``), so LRU order does not depend on
  the filesystem's coarse timestamp clock.
* **Budget** — ``max_bytes`` / ``max_entries`` (or
  ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``) bound the
  store; every save ends with :meth:`ResultStore.evict`, one ``stat``
  scan that unlinks the oldest-stamped entries until both budgets hold.
  ``serve.cache.evictions`` counts removals and ``serve.cache.bytes``
  tracks the footprint the scan saw.
* **Listing** — :meth:`ResultStore.entries` reads each entry's own
  ``"job"`` key for the kernel, scenario, scale and studies.

The store owns only digest-named entries inside their two-hex shard
directories, and removes a shard directory once it is empty; anything
else under the root is left alone.  Failed reports
(``report.error`` set) are never cached: a crash or timeout should
re-execute on the next run, not stick.  Entries are written atomically
(temp file + rename), so concurrent readers and writers in other
processes see a whole entry or none, and a concurrent eviction at worst
turns a hit into a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro.data.store import atomic_write_bytes
from repro.harness.runner import SCHEMA_VERSION, KernelReport
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.executor import Job

#: ``<digest>.json`` filenames the store owns inside a shard.
_DIGEST_NAME = re.compile(r"^[0-9a-f]{16}\.json$")

#: Two-hex shard directory names.
_SHARD_NAME = re.compile(r"^[0-9a-f]{2}$")

#: Writes a save tries: an evict or clear elsewhere removes a shard as
#: soon as it is empty, which can fall between the save creating the
#: shard and writing into it.
_SAVE_ATTEMPTS = 8


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


def _read(path: Path) -> dict | None:
    """An entry's payload, or ``None`` if it is unreadable or was written
    by an incompatible report schema."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(payload, dict)
            or payload.get("schema_version") != SCHEMA_VERSION):
        return None
    return payload


def _listdir(path: Path) -> list[str]:
    """The names in directory *path*; none if it is missing or is not a
    directory (a concurrent ``clear`` may remove a shard mid-scan)."""
    try:
        return os.listdir(path)
    except OSError:
        return []


def _rmdir(path: Path) -> None:
    """Remove directory *path* if it is empty."""
    try:
        path.rmdir()
    except OSError:  # missing, or still holds files
        pass


def _stamp(path: Path) -> None:
    """Mark the entry at *path* as the most recently used."""
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except OSError:  # evicted since it was read: still a hit
        pass


class ResultStore:
    """Digest-prefix-sharded, LRU-bounded on-disk cache of
    :class:`KernelReport`\\ s.

    ``max_bytes`` / ``max_entries`` of ``None`` fall back to the
    ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_ENTRIES``
    environment knobs; both unset means unbounded (eviction never
    triggers).
    """

    def __init__(self, root: str | Path | None = None,
                 max_bytes: int | None = None,
                 max_entries: int | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _env_int("REPRO_CACHE_MAX_BYTES"))
        self.max_entries = (max_entries if max_entries is not None
                            else _env_int("REPRO_CACHE_MAX_ENTRIES"))

    # -- paths ---------------------------------------------------------

    def shard_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def path(self, job: "Job") -> Path:
        return self.shard_path(job_digest(job))

    def _remove(self, digest: str) -> None:
        """Unlink entry *digest*, and its shard if that emptied it."""
        path = self.shard_path(digest)
        path.unlink(missing_ok=True)
        _rmdir(path.parent)

    def _scan(self) -> list[tuple[int, str, int]]:
        """``(mtime_ns, digest, bytes)`` of every digest-named entry inside
        its own shard, least recently used first."""
        found = []
        for shard in _listdir(self.root):
            if len(shard) != 2:
                continue
            for name in _listdir(self.root / shard):
                if not _DIGEST_NAME.match(name) or not name.startswith(shard):
                    continue
                try:
                    stat = (self.root / shard / name).stat()
                except OSError:  # removed by a concurrent evict or clear
                    continue
                found.append((stat.st_mtime_ns, name.removesuffix(".json"),
                              stat.st_size))
        return sorted(found)

    # -- load / save ----------------------------------------------------

    def load(self, job: "Job") -> KernelReport | None:
        """The cached report for *job*, or ``None`` on any miss
        (absent, unreadable, or written by an incompatible schema)."""
        path = self.path(job)
        payload = _read(path)
        if payload is None:
            return None
        record = payload.get("report")
        if not isinstance(record, dict) or "kernel" not in record:
            return None
        report = KernelReport.from_dict(record)
        if report.error is not None:
            return None
        _stamp(path)
        return report

    def save(self, job: "Job", report: KernelReport) -> Path | None:
        """Cache *report* under *job*'s digest (no-op for failures),
        evicting least-recently-used entries if the budget is crossed."""
        if report.error is not None:
            return None
        key = job_key(job)
        path = self.shard_path(_key_digest(key))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "job": key,
            "report": asdict(report),
        }
        data = json.dumps(payload, indent=2, sort_keys=True).encode()
        for attempt in range(1, _SAVE_ATTEMPTS + 1):
            try:
                atomic_write_bytes(path, data)
                break
            except FileNotFoundError:  # a concurrent removal took the shard
                if attempt == _SAVE_ATTEMPTS:
                    raise
        _stamp(path)
        self.evict()
        return path

    # -- budget / eviction ---------------------------------------------

    def _over_budget(self, entries: int, size: int) -> bool:
        return ((self.max_entries is not None and entries > self.max_entries)
                or (self.max_bytes is not None and size > self.max_bytes))

    def evict(self) -> tuple[int, int]:
        """Drop least-recently-used entries until within budget; returns
        ``(entries, bytes)`` removed."""
        scan = self._scan()
        entries, size = len(scan), sum(entry[2] for entry in scan)
        removed = freed = 0
        for _used, digest, entry_bytes in scan:
            if not self._over_budget(entries - removed, size - freed):
                break
            self._remove(digest)
            removed += 1
            freed += entry_bytes
        if removed:
            metrics.counter("serve.cache.evictions").inc(removed)
        metrics.gauge("serve.cache.bytes").set(float(size - freed))
        return removed, freed

    # -- maintenance (repro cache {list,gc}) ----------------------------

    def usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` on disk, from ``stat`` alone."""
        scan = self._scan()
        return len(scan), sum(entry[2] for entry in scan)

    def total_bytes(self) -> int:
        return self.usage()[1]

    def entries(self) -> list[dict]:
        """Listing fields of every servable cached report, most recently
        used first; ``used`` is the entry's recency stamp (ns)."""
        found = []
        for used, digest, size in reversed(self._scan()):
            payload = _read(self.shard_path(digest))
            if payload is None:
                continue
            job = payload.get("job") or {}
            found.append({
                "digest": digest,
                "bytes": size,
                "kernel": job.get("kernel", "?"),
                "scenario": job.get("scenario", "?"),
                "scale": job.get("scale", "?"),
                "studies": job.get("studies", []),
                "used": used,
            })
        return found

    def gc(self, everything: bool = False) -> tuple[int, int]:
        """Remove unservable entries and enforce the budget; returns
        ``(entries, bytes)`` removed.

        Unservable means unreadable or written by a different report
        schema.  ``everything=True`` clears the store.
        """
        if everything:
            freed = self.total_bytes()
            return self.clear(), freed
        removed = freed = 0
        for _used, digest, size in self._scan():
            if _read(self.shard_path(digest)) is None:
                self._remove(digest)
                removed += 1
                freed += size
        evicted, evicted_bytes = self.evict()
        return removed + evicted, freed + evicted_bytes

    def clear(self) -> int:
        """Delete every cached report and every empty shard directory
        (earlier versions left emptied shards behind); returns the number
        of entries removed.  Foreign files under the root survive, and so
        does any shard directory they keep non-empty."""
        digests = [digest for _used, digest, _size in self._scan()]
        for digest in digests:
            self._remove(digest)
        for shard in _listdir(self.root):
            if _SHARD_NAME.match(shard):
                _rmdir(self.root / shard)
        return len(digests)
