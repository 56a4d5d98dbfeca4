"""Determinism and build-once guarantees of the data subsystem.

The old per-process ``lru_cache`` made two classes of bug unobservable:
corpus construction could diverge across processes (no two builds ever
happened in one process), and parallel workers could race to build the
same dataset.  These tests pin both down: corpus content is a pure
function of the spec across process boundaries, concurrent fetches
build exactly once, and the derived-input generators are prefix-stable
in their count parameter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.data import (
    ArtifactStore,
    DatasetSpec,
    build_corpus,
    corpus,
    corpus_fingerprint,
    gbwt_queries,
    scenario_spec,
    tsu_pairs,
    use_store,
)
from repro.data.store import BUILT, DISK
from repro.kernels.base import create_kernel
from repro.obs import metrics

SMALL_KWARGS = dict(genome_length=1500, n_haplotypes=3, short_reads=20,
                    long_reads=4, long_read_length=400)
SMALL = DatasetSpec(**SMALL_KWARGS)

#: Golden fingerprint of the ``default`` corpus at scale 0.05, seed 0:
#: the historical corpus bytes every route to the default scenario must
#: keep reproducing.
GOLDEN_FINGERPRINT = "904b83702eaccf38"

#: Source tree for subprocess imports (tests run without installation).
SRC = Path(__file__).resolve().parents[2] / "src"


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_script(script, *argv):
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )


class TestCrossProcessDeterminism:
    def test_fingerprint_identical_across_processes(self):
        """Two unrelated processes building the same spec produce
        bit-identical corpora (the determinism contract the
        content-addressed store rests on)."""
        script = f"""
            from repro.data import DatasetSpec, build_corpus, corpus_fingerprint
            spec = DatasetSpec(**{SMALL_KWARGS!r})
            print(corpus_fingerprint(build_corpus(spec)))
        """
        first = _run_script(script)
        second = _run_script(script)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout.strip() == second.stdout.strip()
        # ...and both match this process's build.
        assert first.stdout.strip() == corpus_fingerprint(build_corpus(SMALL))

    def test_disk_roundtrip_preserves_content(self, tmp_path):
        store = ArtifactStore(tmp_path)
        built, origin = store.fetch(SMALL)
        assert origin == BUILT
        store.evict_memory()
        loaded, origin = store.fetch(SMALL)
        assert origin == DISK
        assert corpus_fingerprint(loaded) == corpus_fingerprint(built)


    def test_default_corpus_matches_golden_fingerprint(self):
        """The store-backed ``repro.data.corpus`` and a raw
        ``build_corpus`` from the spec produce the pinned bytes."""
        via_data = corpus("default", 0.05, 0)
        via_build = build_corpus(scenario_spec("default", scale=0.05))
        assert corpus_fingerprint(via_data) == GOLDEN_FINGERPRINT
        assert corpus_fingerprint(via_build) == GOLDEN_FINGERPRINT


class TestConcurrentBuildOnce:
    N_WORKERS = 4

    def test_exactly_one_build_under_contention(self, tmp_path):
        """N processes fetching a missing corpus against the same store
        root: the flock serializes them, exactly one builds, the rest
        are served the built artifact from disk."""
        script = f"""
            import sys
            from repro.data import ArtifactStore, DatasetSpec, corpus_fingerprint
            store = ArtifactStore(sys.argv[1])
            data, origin = store.fetch(DatasetSpec(**{SMALL_KWARGS!r}))
            print(origin, corpus_fingerprint(data))
        """
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", textwrap.dedent(script), str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=_subprocess_env(),
            )
            for _ in range(self.N_WORKERS)
        ]
        outputs = []
        for worker in workers:
            out, err = worker.communicate(timeout=120)
            assert worker.returncode == 0, err
            outputs.append(out.split())
        origins = [origin for origin, _ in outputs]
        fingerprints = {fingerprint for _, fingerprint in outputs}
        assert origins.count("built") == 1, origins
        assert set(origins) <= {"built", "disk"}
        assert len(fingerprints) == 1  # everyone saw the same corpus


class TestPrefixStability:
    """Growing a derived dataset's count extends it, never reshuffles it
    (per-index RNG substreams; see repro.data.corpus)."""

    def test_tsu_pairs_prefix_stable(self):
        assert tsu_pairs(10, 120, seed=3) == tsu_pairs(20, 120, seed=3)[:10]

    def test_tsu_pairs_axes_still_matter(self):
        base = tsu_pairs(4, 120, seed=3)
        assert tsu_pairs(4, 120, seed=4) != base
        assert tsu_pairs(4, 150, seed=3) != base
        assert tsu_pairs(4, 120, error_rate=0.2, seed=3) != base

    def test_gbwt_queries_prefix_stable(self, tmp_path):
        graph = ArtifactStore(tmp_path).corpus(SMALL).graph
        short = gbwt_queries(graph, 50, seed=1)
        long = gbwt_queries(graph, 100, seed=1)
        assert short == long[:50]


class TestRePrepare:
    def test_kernel_reprepares_when_spec_changes(self, tmp_path):
        """Regression: the prepared flag is keyed by the spec digest.
        Mutating a run axis after a prepare used to be silently ignored
        and the kernel kept serving the stale dataset."""
        with use_store(ArtifactStore(tmp_path)):
            kernel = create_kernel("tsu", scale=0.25)
            kernel.ensure_prepared()
            first = kernel.pairs
            assert len(first) == 4  # max(4, int(12 * 0.25))
            kernel.ensure_prepared()
            assert kernel.pairs is first  # unchanged spec: no re-prepare
            kernel.scale = 1.0
            kernel.ensure_prepared()
            assert len(kernel.pairs) == 12  # re-prepared at the new scale

    def test_kernel_reprepares_on_scenario_change(self, tmp_path):
        with use_store(ArtifactStore(tmp_path)):
            kernel = create_kernel("tsu", scale=0.25)
            kernel.ensure_prepared()
            default_pairs = kernel.pairs
            kernel.scenario = "divergent"  # doubles tsu_error_rate
            kernel.ensure_prepared()
            assert kernel.pairs != default_pairs


class TestWarmSuite:
    def test_second_run_suite_rebuilds_nothing(self, tmp_path):
        """Acceptance: a warm second ``run_suite`` over the full suite
        performs zero corpus (or derived-input) rebuilds — every build
        counter is flat and the warm pass is served from memory."""
        from repro.harness.runner import run_suite

        registry = metrics.MetricsRegistry()
        with use_store(ArtifactStore(tmp_path)), metrics.use(registry):
            reports = run_suite(scale=0.05, studies=("timing",))
            assert all(report.ok for report in reports.values())
            cold = dict(registry.as_dict()["counters"])
            run_suite(scale=0.05, studies=("timing",))
            warm = registry.as_dict()["counters"]

        builds = {key: value for key, value in cold.items()
                  if key.startswith("data.store.builds")}
        assert builds, "cold pass must have built artifacts"
        for key, value in builds.items():
            assert warm[key] == value, f"warm pass rebuilt {key}"

        def memory_hits(counters):
            return sum(value for key, value in counters.items()
                       if key.startswith("data.store.hits")
                       and "level=memory" in key)

        assert memory_hits(warm) > memory_hits(cold)
