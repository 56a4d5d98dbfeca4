"""The shared on-disk artifact store for suite datasets.

Content-addressed corpus cache under ``benchmarks/datasets/`` (override
with ``$REPRO_DATA_DIR`` or the ``root`` argument), keyed by
:meth:`DatasetSpec.digest` — which folds in every corpus parameter plus
:data:`~repro.data.spec.GENERATOR_VERSION`.  Layout::

    benchmarks/datasets/
        <spec-digest>/
            meta.json             # spec key, fingerprint, sizes
            corpus.pkl            # pickled SuiteData
            derived/
                <name>-<digest>.pkl   # pickled derivation outputs
                <name>-<digest>.json  # derivation meta sidecar
        <spec-digest>.lock        # flock target for build-once

Three-level resolution, cheapest first:

1. **memory** — a :class:`weakref.WeakValueDictionary` of holder objects
   plus a small strong ring of the most recent entries.  Unlike the old
   ``lru_cache(maxsize=4)`` this never pins a corpus for process
   lifetime: once an entry leaves the ring, the collector may reclaim
   it (a scale sweep no longer accumulates resident corpora).
2. **disk** — pickles written atomically (temp file + rename), so
   readers never observe partial artifacts and a warm ``prepare``
   collapses to deserialization time.
3. **build** — under an exclusive ``flock`` with a double-check after
   acquisition, so N concurrent executor workers build a missing corpus
   exactly once and share the result through the filesystem.

Every resolution is observable: ``data.store.hits{level=,kind=}`` /
``data.store.builds{kind=,scenario=}`` counters, a
``data.build_seconds{scenario=}`` gauge, and ``data/{load,build}/...``
spans nested inside the owning kernel's ``prepare`` span.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
import weakref
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - platform guard
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.data.corpus import SuiteData, build_corpus, corpus_fingerprint
from repro.data.derive import get_derivation
from repro.data.spec import GENERATOR_VERSION, DatasetSpec
from repro.obs import metrics, trace

#: Resolution origins reported by :meth:`ArtifactStore.fetch`.
MEMORY, DISK, BUILT = "memory", "disk", "built"


def default_data_dir() -> Path:
    """``$REPRO_DATA_DIR`` or ``<repo>/benchmarks/datasets``."""
    override = os.environ.get("REPRO_DATA_DIR")
    if override:
        return Path(override)
    # store.py -> data -> repro -> src -> repository root
    return Path(__file__).parents[3] / "benchmarks" / "datasets"


class _Artifact:
    """Weak-referenceable holder (lists and tuples aren't)."""

    __slots__ = ("value", "__weakref__")

    def __init__(self, value: object) -> None:
        self.value = value


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _derived_digest(spec: DatasetSpec, name: str, version: int,
                    params: dict) -> str:
    import hashlib

    payload = {
        "spec": spec.digest(),
        "derivation": name,
        "version": version,
        "generator_version": GENERATOR_VERSION,
        "params": params,
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:16]


@contextmanager
def exclusive_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive advisory lock on *path* (created if absent)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = os.open(path, os.O_CREAT | os.O_RDWR)
    try:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_UN)
        os.close(handle)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* so concurrent readers see all of it or nothing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name + ".tmp")
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Build-once, share-everywhere cache of corpora and derived inputs.

    ``memory_slots`` bounds the strong in-memory ring (the evictable
    replacement for the old unbounded-lifetime ``lru_cache``).
    """

    def __init__(self, root: str | Path | None = None,
                 memory_slots: int = 4) -> None:
        self.root = Path(root) if root is not None else default_data_dir()
        self._memory: weakref.WeakValueDictionary[str, _Artifact] = (
            weakref.WeakValueDictionary()
        )
        self._recent: deque[_Artifact] = deque(maxlen=max(1, memory_slots))

    # -- paths ---------------------------------------------------------

    def corpus_dir(self, spec: DatasetSpec) -> Path:
        return self.root / spec.digest()

    def corpus_path(self, spec: DatasetSpec) -> Path:
        return self.corpus_dir(spec) / "corpus.pkl"

    def _lock_path(self, spec: DatasetSpec) -> Path:
        return self.root / f"{spec.digest()}.lock"

    # -- memory layer --------------------------------------------------

    def _remember(self, key: str, value: object) -> None:
        holder = _Artifact(value)
        self._memory[key] = holder
        self._recent.append(holder)

    def _recall(self, key: str) -> object | None:
        holder = self._memory.get(key)
        if holder is None:
            return None
        self._recent.append(holder)  # refresh recency
        return holder.value

    def evict_memory(self) -> None:
        """Drop every in-memory entry (disk artifacts stay)."""
        self._recent.clear()
        self._memory.clear()

    # -- corpus --------------------------------------------------------

    def corpus(self, spec: DatasetSpec) -> SuiteData:
        """The corpus for *spec*: memory, then disk, then build-once."""
        data, _origin = self.fetch(spec)
        return data

    def fetch(self, spec: DatasetSpec) -> tuple[SuiteData, str]:
        """Like :meth:`corpus` but also reports where the data came from
        (``"memory"`` / ``"disk"`` / ``"built"``)."""
        key = f"corpus/{spec.digest()}"
        cached = self._recall(key)
        if cached is not None:
            self._count_hit(MEMORY, "corpus", spec)
            return cached, MEMORY

        with trace.timed_span(f"data/load/corpus/{spec.scenario}"):
            loaded = self._load_pickle(self.corpus_path(spec))
        if loaded is not None:
            self._remember(key, loaded)
            self._count_hit(DISK, "corpus", spec)
            return loaded, DISK

        with exclusive_lock(self._lock_path(spec)):
            # Double-check: another process may have built while we
            # waited on the lock.
            loaded = self._load_pickle(self.corpus_path(spec))
            if loaded is not None:
                self._remember(key, loaded)
                self._count_hit(DISK, "corpus", spec)
                return loaded, DISK
            with trace.timed_span(f"data/build/corpus/{spec.scenario}") as span:
                data = build_corpus(spec)
                self._write_corpus(spec, data)
            metrics.counter("data.store.builds", kind="corpus",
                            scenario=spec.scenario).inc()
            metrics.gauge("data.build_seconds",
                          scenario=spec.scenario).set(span.duration)
        self._remember(key, data)
        return data, BUILT

    def _write_corpus(self, spec: DatasetSpec, data: SuiteData) -> None:
        payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(self.corpus_path(spec), payload)
        meta = {
            "spec": spec.key(),
            "digest": spec.digest(),
            "fingerprint": corpus_fingerprint(data),
            "generator_version": GENERATOR_VERSION,
            "created": time.time(),
            "corpus_bytes": len(payload),
        }
        atomic_write_bytes(self.corpus_dir(spec) / "meta.json",
                            json.dumps(meta, indent=2, sort_keys=True).encode())

    # -- derived inputs ------------------------------------------------

    def derived(self, spec: DatasetSpec, name: str, **params: object) -> object:
        """A derivation's output for *spec*: memory / disk / build-once.

        The derivation must be registered (:mod:`repro.data.derive`);
        building it builds the corpus first unless the derivation
        declares ``needs_corpus=False``.
        """
        value, _origin = self.fetch_derived(spec, name, **params)
        return value

    def fetch_derived(self, spec: DatasetSpec, name: str,
                      **params: object) -> tuple[object, str]:
        step = get_derivation(name)
        digest = _derived_digest(spec, name, step.version, params)
        key = f"derived/{digest}"
        cached = self._recall(key)
        if cached is not None:
            self._count_hit(MEMORY, "derived", spec)
            return cached, MEMORY

        path = self.corpus_dir(spec) / "derived" / f"{name}-{digest}.pkl"
        with trace.timed_span(f"data/load/derived/{name}"):
            loaded = self._load_pickle(path)
        if loaded is not None:
            self._remember(key, loaded)
            self._count_hit(DISK, "derived", spec)
            return loaded, DISK

        # Resolve the corpus *before* taking the spec lock: corpus
        # resolution locks the same file, and a second flock on a fresh
        # descriptor would deadlock against our own held lock.
        data = self.corpus(spec) if step.needs_corpus else None
        with exclusive_lock(self._lock_path(spec)):
            loaded = self._load_pickle(path)
            if loaded is not None:
                self._remember(key, loaded)
                self._count_hit(DISK, "derived", spec)
                return loaded, DISK
            with trace.timed_span(f"data/build/derived/{name}"):
                value = step.build(data, spec, **params)
                atomic_write_bytes(
                    path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                )
                atomic_write_bytes(
                    path.with_suffix(".json"),
                    json.dumps(
                        {"derivation": name, "version": step.version,
                         "params": {k: repr(v) for k, v in params.items()},
                         "created": time.time()},
                        indent=2, sort_keys=True,
                    ).encode(),
                )
            metrics.counter("data.store.builds", kind="derived",
                            scenario=spec.scenario).inc()
        self._remember(key, value)
        return value, BUILT

    # -- shared plumbing -----------------------------------------------

    @staticmethod
    def _count_hit(level: str, kind: str, spec: DatasetSpec) -> None:
        metrics.counter("data.store.hits", level=level, kind=kind,
                        scenario=spec.scenario).inc()

    @staticmethod
    def _load_pickle(path: Path) -> object | None:
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any corruption is a miss
            return None

    # -- maintenance (repro data {list,build,gc}) ----------------------

    def entries(self) -> list[dict]:
        """Metadata for every corpus on disk (sorted by scenario/axes)."""
        found = []
        if not self.root.is_dir():
            return found
        for meta_path in sorted(self.root.glob("*/meta.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            derived_dir = meta_path.parent / "derived"
            meta["derived_count"] = (
                len(list(derived_dir.glob("*.pkl"))) if derived_dir.is_dir()
                else 0
            )
            meta["disk_bytes"] = sum(
                entry.stat().st_size
                for entry in meta_path.parent.rglob("*") if entry.is_file()
            )
            found.append(meta)
        found.sort(key=lambda m: (m.get("spec", {}).get("scenario", ""),
                                  m.get("spec", {}).get("scale", 0),
                                  m.get("spec", {}).get("seed", 0)))
        return found

    def gc(self, everything: bool = False) -> tuple[int, int]:
        """Remove stale artifacts; returns ``(entries, bytes)`` removed.

        Default: entries written by a different
        :data:`GENERATOR_VERSION` (unreachable — their digests can never
        match a current spec).  ``everything=True`` clears the store.
        """
        import shutil

        removed = freed = 0
        if not self.root.is_dir():
            return removed, freed
        for entry in list(self.root.iterdir()):
            if entry.suffix == ".lock":
                continue
            if not entry.is_dir():
                continue
            meta_path = entry / "meta.json"
            stale = everything
            if not stale:
                try:
                    meta = json.loads(meta_path.read_text())
                    stale = meta.get("generator_version") != GENERATOR_VERSION
                except (OSError, ValueError):
                    stale = True  # unreadable meta: never servable
            if stale:
                freed += sum(p.stat().st_size
                             for p in entry.rglob("*") if p.is_file())
                shutil.rmtree(entry)
                lock = self.root / f"{entry.name}.lock"
                lock.unlink(missing_ok=True)
                removed += 1
        self.evict_memory()
        return removed, freed


#: The process-wide store the kernels and the compat shim resolve
#: against; swap with :func:`use_store` (tests) or :func:`set_default_store`.
_DEFAULT_STORE: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The shared process-wide :class:`ArtifactStore` (created lazily)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore()
    return _DEFAULT_STORE


def set_default_store(store: ArtifactStore | None) -> None:
    """Install *store* as the process-wide default (``None`` resets)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store


@contextmanager
def use_store(store: ArtifactStore) -> Iterator[ArtifactStore]:
    """Temporarily install *store* as the default (test isolation)."""
    previous = _DEFAULT_STORE
    set_default_store(store)
    try:
        yield store
    finally:
        set_default_store(previous)


def ensure_corpus(spec: DatasetSpec,
                  store: ArtifactStore | None = None) -> tuple[SuiteData, str]:
    """Pre-build (or load) the corpus for *spec*; returns data + origin.

    The executor calls this before dispatching workers so dataset
    construction happens once up front instead of racing inside the
    worker pool's ``prepare`` hot path.
    """
    return (store or default_store()).fetch(spec)
