"""Kernel inputs as chunked views over range-parameterized derivations.

The derived kernel inputs — GSSW's (read, subgraph) pairs, TSU's
synthetic pairs, GBWT's query tuples — are each one registered
derivation that takes ``start``/``stop`` item indices.  A kernel's
``prepare`` wraps its input in a :class:`ChunkedSeries`: a re-iterable
sequence that resolves fixed-size *chunks* of that derivation through
the :class:`~repro.data.store.ArtifactStore` and keeps only its latest
chunk.

The chunk size is the only thing that differs between the two modes.
By default it is the whole set, so an in-memory run is the one-chunk
case: ``prepare`` fetches the full input once and ``execute`` iterates
it without touching the store.  ``repro run --stream`` activates a
:func:`streaming` scope with a small chunk size instead, and residency
stays ``O(chunk)`` at any scale: the series holds one chunk and the
store's strong in-memory ring the few most recent ones (older ones fall
back to their disk pickles).  Results are *identical* by construction:
the generators draw each item from its own RNG substream, so the
concatenation of chunks equals the whole set element for element, and
reports from a streaming run match the in-memory run bit for bit.

Chunk fetches happen while a kernel iterates, i.e. inside its
``prepare``/``execute`` span — the store's ``data/load``/``data/build``
spans nest inside the owning kernel span, keeping the attribution
sum-exactness invariant intact.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.spec import DatasetSpec

#: Items per chunk inside a :func:`streaming` scope that names none.
DEFAULT_CHUNK_ITEMS = 64

#: Chunk size of the innermost active :func:`streaming` scope.
_ACTIVE: int | None = None


def active_chunk_items() -> int | None:
    """The active streaming chunk size, or ``None`` when kernels should
    hold their whole input as one chunk (the default)."""
    return _ACTIVE


@contextmanager
def streaming(chunk_items: int | None = None) -> Iterator[int]:
    """Stream kernel inputs in chunks of *chunk_items* for the dynamic
    extent of the block; yields the chunk size."""
    global _ACTIVE
    if chunk_items is None:
        chunk_items = DEFAULT_CHUNK_ITEMS
    if chunk_items < 1:
        raise ValueError("chunk_items must be >= 1")
    previous = _ACTIVE
    _ACTIVE = chunk_items
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


class ChunkedSeries(Sequence):
    """A re-iterable sequence backed by chunked store derivations.

    ``name`` must be a registered derivation taking ``start``/``stop``
    item indices (plus ``params``) and returning the list of items for
    that range.  ``total`` is the number of *generator* indices; chunks
    may filter items, so ``len(self)`` counts what the chunks actually
    yield (computed with one bounded pass, then cached).  The chunk size
    is the active :func:`streaming` one at construction, or ``total``
    (one chunk) outside a streaming scope.  Like the list it stands in
    for, a series compares equal by value to a list or another series.
    """

    def __init__(self, spec: "DatasetSpec", name: str, total: int,
                 params: dict | None = None) -> None:
        self.spec = spec
        self.name = name
        self.total = total
        self.chunk_items = active_chunk_items() or max(1, total)
        self.params = dict(params or {})
        self._ends: list[int] | None = None  # cumulative yielded counts
        self._latest: tuple[int, list] | None = None  # (start, items)

    # -- chunk plumbing ------------------------------------------------

    def _ranges(self) -> list[tuple[int, int]]:
        return [
            (start, min(start + self.chunk_items, self.total))
            for start in range(0, self.total, self.chunk_items)
        ]

    def _fetch(self, start: int, stop: int) -> list:
        if self._latest is not None and self._latest[0] == start:
            return self._latest[1]
        from repro.data.store import default_store

        items = default_store().derived(
            self.spec, self.name, start=start, stop=stop, **self.params
        )
        self._latest = (start, items)
        return items

    def _chunk_ends(self) -> list[int]:
        """Cumulative item counts per chunk (one streaming pass)."""
        if self._ends is None:
            ends: list[int] = []
            count = 0
            for start, stop in self._ranges():
                count += len(self._fetch(start, stop))
                ends.append(count)
            self._ends = ends
        return self._ends

    # -- sequence protocol ---------------------------------------------

    def __iter__(self) -> Iterator:
        for start, stop in self._ranges():
            yield from self._fetch(start, stop)

    def __len__(self) -> int:
        ends = self._chunk_ends()
        return ends[-1] if ends else 0

    def __getitem__(self, index: int):
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("ChunkedSeries index out of range")
        ends = self._chunk_ends()
        chunk = bisect.bisect_right(ends, index)
        start, stop = self._ranges()[chunk]
        offset = index - (ends[chunk - 1] if chunk else 0)
        return self._fetch(start, stop)[offset]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ChunkedSeries)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # mutable-list semantics: equal by value, unhashable
