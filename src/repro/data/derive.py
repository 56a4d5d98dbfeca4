"""The derivation registry: named corpus -> kernel-input transforms.

The paper produces each kernel's dataset by running its parent tool "up
until the kernel" and dumping the boundary inputs.  A *derivation* is
that dump step as a first-class, cacheable object: a registered function
from the shared :class:`~repro.data.corpus.SuiteData` (plus parameters)
to the kernel's prepared inputs.  The artifact store caches derivation
outputs on disk next to the corpus they derive from, keyed by
``(spec digest, derivation name, params, derivation version)`` — so a
warm run's ``prepare`` collapses to deserialization for every kernel,
not just the corpus.

Kernel modules register their extractor at import time::

    @derivation("gssw_inputs")
    def _gssw_inputs(data, spec, start=0, stop=None):
        reads = list(data.short_reads)[start:stop]
        return extract_gssw_inputs(data.graph, reads)

Inputs a kernel reads through a
:class:`~repro.data.streaming.ChunkedSeries` take ``start``/``stop``
item indices and default to the whole set.

Bump ``version=`` when a derivation's output for unchanged inputs
changes; stale artifacts then miss (and ``repro data gc`` removes them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.corpus import SuiteData
    from repro.data.spec import DatasetSpec


@dataclass(frozen=True)
class Derivation:
    """One registered corpus -> kernel-input transform."""

    name: str
    fn: Callable[..., object]
    version: int = 1
    #: ``False`` for generators independent of the corpus (e.g. TSU's
    #: synthetic pairs): the store then skips building the corpus and
    #: passes ``data=None``.
    needs_corpus: bool = True

    def build(self, data: "SuiteData | None", spec: "DatasetSpec",
              **params: object) -> object:
        return self.fn(data, spec, **params)


#: name -> Derivation.
DERIVATIONS: dict[str, Derivation] = {}


def derivation(name: str, version: int = 1, needs_corpus: bool = True):
    """Decorator registering ``fn(data, spec, **params)`` under *name*."""

    def decorate(fn: Callable[..., object]) -> Callable[..., object]:
        if name in DERIVATIONS:
            raise DatasetError(f"duplicate derivation name {name!r}")
        DERIVATIONS[name] = Derivation(
            name=name, fn=fn, version=version, needs_corpus=needs_corpus
        )
        return fn

    return decorate


def get_derivation(name: str) -> Derivation:
    """Look up a registered derivation by name."""
    try:
        return DERIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(DERIVATIONS))
        raise DatasetError(
            f"unknown derivation {name!r}; known: {known}"
        ) from None
