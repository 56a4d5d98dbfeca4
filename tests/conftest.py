"""Shared fixtures: a small deterministic corpus reused across tests."""

import importlib

import pytest

from repro.data import ArtifactStore, corpus, set_default_store
from repro.graph.builder import simulate_graph_pangenome
from repro.uarch.events import AddressSpace


TEST_SCALE = 0.25


@pytest.fixture(scope="session", autouse=True)
def _isolated_dataset_store(tmp_path_factory):
    """Resolve datasets against a session-private artifact store.

    Keeps the test run from reading (or polluting) the repository's
    ``benchmarks/datasets/`` cache, and makes the first build of each
    corpus deterministic — every session starts cold.
    """
    store = ArtifactStore(tmp_path_factory.mktemp("datasets"))
    set_default_store(store)
    yield store
    set_default_store(None)


@pytest.fixture(scope="session")
def small_suite(_isolated_dataset_store):
    """The shared kernel corpus at test scale (memoized store-side)."""
    return corpus("default", TEST_SCALE, 0)


@pytest.fixture(scope="session")
def small_graph_pangenome():
    """A small ground-truth variation graph + consistent haplotypes."""
    return simulate_graph_pangenome(genome_length=4000, n_haplotypes=4, seed=11)


@pytest.fixture
def fresh_target_space(monkeypatch):
    """SSW's target windows come from a process-wide address space;
    restart it so recorded probe addresses do not depend on test order."""
    # The module, not the ``repro.align.smith_waterman`` function it shadows.
    ssw_module = importlib.import_module("repro.align.smith_waterman")
    monkeypatch.setattr(ssw_module, "_TARGET_SPACE",
                        AddressSpace(base=1 << 33))
