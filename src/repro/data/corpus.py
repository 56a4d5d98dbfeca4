"""Corpus construction: one :class:`SuiteData` per :class:`DatasetSpec`.

This is the generator behind the artifact store, driven entirely by the
declarative spec; callers reach it through :func:`repro.data.corpus`
(scenario, scale, seed) or the store directly.  For the ``default``
scenario it reproduces the historical corpus bit-for-bit (same RNG
streams, pinned by a golden fingerprint), so paper-shape assertions
carry over unchanged.

Also here: the derived-input generators shared across kernels
(:func:`tsu_pairs`, :func:`gbwt_queries`) and the
:func:`corpus_fingerprint` content hash that the cross-process
determinism tests (and ``repro data list``) rely on.
"""

from __future__ import annotations

import hashlib
import random

from dataclasses import dataclass

from repro.data.spec import SUITE_RATES, DatasetSpec
from repro.graph.builder import GraphPangenome, simulate_graph_pangenome
from repro.graph.model import SequenceGraph
from repro.sequence.mutate import VariantRates, apply_variants, sample_variants
from repro.sequence.records import ReadSet, SequenceRecord
from repro.sequence.simulate import ILLUMINA, ReadProfile, ReadSimulator

__all__ = [
    "SUITE_RATES", "SuiteData", "build_corpus", "corpus_fingerprint",
    "gbwt_queries", "gbwt_queries_range", "mutate_sequence", "tsu_pairs",
    "tsu_pairs_range",
]


@dataclass(frozen=True)
class SuiteData:
    """The shared corpus every kernel dataset derives from.

    ``held_out`` is an assembly diverged from the same ancestor but NOT
    threaded into the graph — the realistic input for chromosome-to-graph
    mapping (a new sample being added, as in Minigraph-Cactus).
    """

    graph_pangenome: GraphPangenome
    short_reads: ReadSet
    long_reads: ReadSet
    assemblies: tuple[SequenceRecord, ...]
    held_out: SequenceRecord
    seed: int
    scale: float
    scenario: str = "default"

    @property
    def graph(self) -> SequenceGraph:
        return self.graph_pangenome.graph

    @property
    def reference(self) -> SequenceRecord:
        return self.graph_pangenome.reference


def _long_profile(spec: DatasetSpec) -> ReadProfile:
    """HiFi-like reads scaled so one read spans a useful graph stretch."""
    mean = max(400, int(spec.long_read_length * min(spec.scale, 4.0)))
    return ReadProfile(
        "hifi_scaled", mean_length=mean, length_sd=mean // 5,
        substitution_rate=0.004, insertion_rate=0.003, deletion_rate=0.003,
    )


def build_corpus(spec: DatasetSpec) -> SuiteData:
    """Build the shared corpus *spec* describes (pure: no caching here —
    memoization and cross-process sharing live in the artifact store)."""
    genome_length = int(spec.genome_length * spec.scale)
    gp = simulate_graph_pangenome(
        genome_length=genome_length,
        n_haplotypes=spec.n_haplotypes,
        seed=spec.seed,
        rates=spec.rates,
    )
    rng = random.Random(f"suite-{spec.seed}")
    donor_short = gp.haplotypes[rng.randrange(len(gp.haplotypes))]
    donor_long = gp.haplotypes[rng.randrange(len(gp.haplotypes))]
    short_reads = ReadSimulator(ILLUMINA, seed=spec.seed + 1).simulate(
        donor_short, n_reads=max(20, int(spec.short_reads * spec.scale))
    )
    long_reads = ReadSimulator(_long_profile(spec), seed=spec.seed + 2).simulate(
        donor_long, n_reads=max(4, int(spec.long_reads * spec.scale))
    )
    # Held-out assembly: same ancestor, an independent and more divergent
    # variant set, never threaded into the graph.
    held_rng = random.Random(f"held-out-{spec.seed}")
    held_rates = VariantRates(
        snp=spec.rates.snp * spec.held_out_divergence,
        insertion=spec.rates.insertion * spec.held_out_divergence,
        deletion=spec.rates.deletion * spec.held_out_divergence,
        inversion=spec.rates.inversion,
        duplication=spec.rates.duplication,
        indel_mean_length=6.0,
        sv_mean_length=spec.rates.sv_mean_length,
    )
    held_variants = sample_variants(gp.reference.sequence, rates=held_rates,
                                    rng=held_rng)
    held_out = SequenceRecord(
        "held_out", apply_variants(gp.reference.sequence, held_variants)
    )
    return SuiteData(
        graph_pangenome=gp,
        short_reads=short_reads,
        long_reads=long_reads,
        assemblies=tuple(gp.pangenome.records),
        held_out=held_out,
        seed=spec.seed,
        scale=spec.scale,
        scenario=spec.scenario,
    )


def corpus_fingerprint(data: SuiteData) -> str:
    """A 16-hex content hash of everything in the corpus.

    Covers the graph (nodes, edges, paths), all sequences and all reads,
    so two corpora fingerprint equal iff every kernel would see
    identical inputs — the invariant the cross-process determinism
    tests assert (the old ``lru_cache`` hid rebuild divergence
    entirely: no two builds in one process ever happened).
    """
    digest = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            digest.update(str(part).encode())
            digest.update(b"\x00")

    graph = data.graph
    feed("nodes")
    for node_id in sorted(graph.node_ids()):
        feed(node_id, graph.node(node_id).sequence)
    feed("edges")
    for source, target in sorted(graph.edges()):
        feed(source, target)
    feed("paths")
    for name in graph.path_names():
        feed(name, ",".join(map(str, graph.path(name).nodes)))
    feed("reference", data.reference.name, data.reference.sequence)
    feed("held_out", data.held_out.name, data.held_out.sequence)
    feed("assemblies")
    for record in data.assemblies:
        feed(record.name, record.sequence)
    for label, reads in (("short", data.short_reads),
                         ("long", data.long_reads)):
        feed(label)
        for read in reads:
            feed(read.name, read.sequence)
    return digest.hexdigest()[:16]


def mutate_sequence(sequence: str, error_rate: float, rng: random.Random) -> str:
    """Apply uniform substitution/indel noise (used by the TSU generator)."""
    out: list[str] = []
    third = error_rate / 3.0
    for base in sequence:
        roll = rng.random()
        if roll < third:
            continue  # deletion
        if roll < 2 * third:
            out.append(rng.choice("ACGT"))
            out.append(base)
        elif roll < error_rate:
            out.append(rng.choice([b for b in "ACGT" if b != base]))
        else:
            out.append(base)
    if not out:
        out.append(sequence[0] if sequence else "A")
    return "".join(out)


def tsu_pairs(
    n_pairs: int, length: int, error_rate: float = 0.01, seed: int = 0
) -> list[tuple[str, str]]:
    """TSU's dataset: sequence pairs at a given length and error rate
    (the paper's generator script uses 10 kbp at 1%).

    Extension semantics: pair *i* is drawn from its own RNG substream
    seeded by ``(seed, length, i)``, so ``tsu_pairs(10, ...)`` is
    exactly ``tsu_pairs(20, ...)[:10]`` *by construction* — growing the
    count extends the dataset, it never reshuffles it.  (The old shared
    stream happened to be prefix-stable only because each pair consumed
    a deterministic number of draws; per-item substreams make the
    guarantee structural and keep every pair independent of the count.)
    """
    return tsu_pairs_range(0, n_pairs, length, error_rate=error_rate,
                           seed=seed)


def tsu_pairs_range(
    start: int, stop: int, length: int, error_rate: float = 0.01,
    seed: int = 0,
) -> list[tuple[str, str]]:
    """Pairs ``start..stop`` of the :func:`tsu_pairs` dataset.

    Because each pair lives on its own ``(seed, length, index)``
    substream, this is exactly ``tsu_pairs(stop, ...)[start:stop]``
    without generating the prefix — the chunk primitive behind the
    streaming execution mode.
    """
    pairs = []
    for index in range(start, stop):
        rng = random.Random(f"tsu-{seed}-{length}-{index}")
        a = "".join(rng.choice("ACGT") for _ in range(length))
        pairs.append((a, mutate_sequence(a, error_rate, rng)))
    return pairs


def gbwt_queries(
    graph: SequenceGraph, n_queries: int, seed: int = 0,
    min_length: int = 1, max_length: int = 100,
) -> list[tuple[int, ...]]:
    """GBWT's dataset: random haplotype subpaths of length 1..100
    (exactly the paper's generator, Section 4.2).

    Same extension semantics as :func:`tsu_pairs`: query *i* has its own
    substream seeded by ``(seed, i)``, so a 200-query set is a prefix of
    the 2000-query set at the same seed.
    """
    return gbwt_queries_range(graph, 0, n_queries, seed=seed,
                              min_length=min_length, max_length=max_length)


def gbwt_queries_range(
    graph: SequenceGraph, start: int, stop: int, seed: int = 0,
    min_length: int = 1, max_length: int = 100,
) -> list[tuple[int, ...]]:
    """Queries ``start..stop`` of the :func:`gbwt_queries` dataset —
    the chunk primitive for streaming (identical to a slice of the full
    set, per the per-index substream design)."""
    names = graph.path_names()
    queries: list[tuple[int, ...]] = []
    for index in range(start, stop):
        rng = random.Random(f"gbwt-{seed}-{index}")
        path = graph.path(names[rng.randrange(len(names))])
        length = rng.randint(min_length, min(max_length, len(path.nodes)))
        begin = rng.randrange(len(path.nodes) - length + 1)
        queries.append(tuple(path.nodes[begin : begin + length]))
    return queries
