"""Minimizer seeding for sequences and pangenome graphs.

Most Seq2Graph tools reviewed in the paper use minimizer seeding
(Section 2.1): the same computation as Seq2Seq minimizers, but the index
maps k-mer hashes to *graph positions* rather than linear coordinates.
Like vg Giraffe, the graph index is built from the haplotype paths so
every indexed k-mer is one that actually occurs in a haplotype.
"""

from __future__ import annotations

import bisect
import weakref
from dataclasses import dataclass

from repro.errors import IndexError_
from repro.graph.model import SequenceGraph
from repro.sequence.alphabet import BASE_TO_CODE, reverse_complement

_MASK64 = (1 << 64) - 1


def hash64(value: int) -> int:
    """Invertible 64-bit integer mix (minimap2's hash64 without mask)."""
    value &= _MASK64
    value = (~value + (value << 21)) & _MASK64
    value ^= value >> 24
    value = (value + (value << 3) + (value << 8)) & _MASK64
    value ^= value >> 14
    value = (value + (value << 2) + (value << 4)) & _MASK64
    value ^= value >> 28
    value = (value + (value << 31)) & _MASK64
    return value


def encode_kmer(kmer: str) -> int:
    """2-bit packed integer code of *kmer* (A=0 C=1 G=2 T=3, left base high)."""
    code = 0
    for base in kmer:
        if base not in BASE_TO_CODE:
            raise IndexError_(f"cannot encode k-mer containing {base!r}")
        code = (code << 2) | BASE_TO_CODE[base]
    return code


@dataclass(frozen=True)
class Minimizer:
    """One window minimizer.

    Attributes:
        hash_value: Hash of the canonical k-mer.
        position: 0-based start of the k-mer on the source sequence.
        is_reverse: True if the canonical strand is the reverse complement.
    """

    hash_value: int
    position: int
    is_reverse: bool


def canonical_hash(kmer: str) -> tuple[int, bool]:
    """Hash of the canonical (strand-independent) form of *kmer*.

    Returns (hash, is_reverse): is_reverse is True when the reverse
    complement is the canonical strand.
    """
    forward = hash64(encode_kmer(kmer))
    backward = hash64(encode_kmer(reverse_complement(kmer)))
    if backward < forward:
        return backward, True
    return forward, False


def minimizers(sequence: str, k: int = 15, w: int = 10) -> list[Minimizer]:
    """Window minimizers of *sequence*.

    For every window of *w* consecutive k-mers the smallest canonical hash
    is selected; consecutive duplicates collapse.  K-mers containing ``N``
    are skipped (their window contributes nothing).
    """
    if k < 2 or w < 1:
        raise IndexError_("require k >= 2 and w >= 1")
    n_kmers = len(sequence) - k + 1
    if n_kmers <= 0:
        return []
    hashes: list[tuple[int, bool] | None] = []
    for offset in range(n_kmers):
        kmer = sequence[offset : offset + k]
        if "N" in kmer:
            hashes.append(None)
        else:
            hashes.append(canonical_hash(kmer))
    selected: list[Minimizer] = []
    last: tuple[int, int] | None = None
    for window_start in range(max(1, n_kmers - w + 1)):
        best: tuple[int, int, bool] | None = None
        for offset in range(window_start, min(window_start + w, n_kmers)):
            entry = hashes[offset]
            if entry is None:
                continue
            hash_value, is_reverse = entry
            if best is None or hash_value < best[0]:
                best = (hash_value, offset, is_reverse)
        if best is None:
            continue
        key = (best[0], best[1])
        if key != last:
            selected.append(Minimizer(best[0], best[1], best[2]))
            last = key
    return selected


@dataclass(frozen=True)
class GraphHit:
    """A minimizer occurrence in the graph: node id + offset + strand."""

    node_id: int
    offset: int
    is_reverse: bool


@dataclass(frozen=True)
class Seed:
    """A seed: a read minimizer matched to a graph position."""

    read_position: int
    node_id: int
    node_offset: int
    is_reverse: bool


class SequenceMinimizerIndex:
    """Minimizer index over linear sequences (the Seq2Seq baseline)."""

    def __init__(self, k: int = 15, w: int = 10) -> None:
        self.k = k
        self.w = w
        self._table: dict[int, list[tuple[str, int, bool]]] = {}

    def add(self, name: str, sequence: str) -> None:
        """Index *sequence* under *name*."""
        for minimizer in minimizers(sequence, self.k, self.w):
            self._table.setdefault(minimizer.hash_value, []).append(
                (name, minimizer.position, minimizer.is_reverse)
            )

    def lookup(self, hash_value: int) -> list[tuple[str, int, bool]]:
        return self._table.get(hash_value, [])

    def seeds_for(self, read_sequence: str) -> list[tuple[int, str, int, bool]]:
        """(read_pos, ref_name, ref_pos, opposite_strands) seed tuples."""
        seeds = []
        for minimizer in minimizers(read_sequence, self.k, self.w):
            for name, position, ref_reverse in self.lookup(minimizer.hash_value):
                seeds.append(
                    (minimizer.position, name, position, minimizer.is_reverse != ref_reverse)
                )
        return seeds

    @property
    def distinct_minimizers(self) -> int:
        return len(self._table)


class GraphMinimizerIndex:
    """Minimizer index over a pangenome graph, built from haplotype paths.

    Every minimizer of every path is indexed at its graph position
    (node id + offset).  Shared path regions dedupe to the same position,
    so graph size — not path count — bounds the index.
    """

    def __init__(self, graph: SequenceGraph, k: int = 15, w: int = 10) -> None:
        if graph.path_count == 0:
            raise IndexError_("graph minimizer index needs at least one path")
        self.k = k
        self.w = w
        self._table: dict[int, list[GraphHit]] = {}
        self._build(graph)

    def _build(self, graph: SequenceGraph) -> None:
        seen: set[tuple[int, int, int]] = set()
        for path in graph.paths():
            sequence = graph.path_sequence(path.name)
            # Cumulative node starts for mapping linear offsets back.
            starts: list[int] = []
            total = 0
            for node_id in path.nodes:
                starts.append(total)
                total += len(graph.node(node_id))
            for minimizer in minimizers(sequence, self.k, self.w):
                node_index = bisect.bisect_right(starts, minimizer.position) - 1
                node_id = path.nodes[node_index]
                node_offset = minimizer.position - starts[node_index]
                key = (minimizer.hash_value, node_id, node_offset)
                if key in seen:
                    continue
                seen.add(key)
                self._table.setdefault(minimizer.hash_value, []).append(
                    GraphHit(node_id, node_offset, minimizer.is_reverse)
                )

    def lookup(self, hash_value: int) -> list[GraphHit]:
        return self._table.get(hash_value, [])

    def seeds_for(self, read_sequence: str, max_hits_per_minimizer: int = 64) -> list[Seed]:
        """Seeds for a read: all graph hits of its minimizers.

        Overly repetitive minimizers (more than *max_hits_per_minimizer*
        graph hits) are dropped, mirroring the hard hit caps every real
        tool applies.
        """
        seeds: list[Seed] = []
        for minimizer in minimizers(read_sequence, self.k, self.w):
            hits = self.lookup(minimizer.hash_value)
            if not hits or len(hits) > max_hits_per_minimizer:
                continue
            for hit in hits:
                seeds.append(
                    Seed(
                        read_position=minimizer.position,
                        node_id=hit.node_id,
                        node_offset=hit.offset,
                        is_reverse=minimizer.is_reverse != hit.is_reverse,
                    )
                )
        return seeds

    def oriented_seeds(
        self, read_sequence: str, max_hits_per_minimizer: int = 64
    ) -> tuple[list[Seed], str]:
        """Seeds for the better-matching orientation of the read.

        Real mappers try both strands; here the majority strand of the
        forward seeding decides, and reverse-majority reads are re-seeded
        as their reverse complement.  Returns (seeds, oriented sequence):
        the read as given, or its reverse complement when it was flipped.
        """
        seeds = self.seeds_for(read_sequence, max_hits_per_minimizer)
        reverse_hits = sum(1 for seed in seeds if seed.is_reverse)
        if reverse_hits * 2 <= len(seeds):
            return [s for s in seeds if not s.is_reverse], read_sequence
        flipped = reverse_complement(read_sequence)
        seeds = self.seeds_for(flipped, max_hits_per_minimizer)
        return [s for s in seeds if not s.is_reverse], flipped

    @property
    def distinct_minimizers(self) -> int:
        return len(self._table)


#: graph -> {(k, w): GraphMinimizerIndex}, keyed weakly by graph identity.
_GRAPH_INDEXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def graph_minimizer_index(graph: SequenceGraph, k: int,
                          w: int) -> GraphMinimizerIndex:
    """The process-local minimizer index of *graph* at (*k*, *w*), built
    on the first call and shared by every later one.

    An index holds no reference to its graph, so a cached entry lives
    exactly as long as the graph does.  A graph must not be changed
    after its first index: the cached one would go stale (the Cactus
    builder, which grows its graph between haplotypes, builds its own).
    This is not a store derivation: its callers are derivations, and a
    derivation build holds its spec's flock, so it must not re-enter
    ``derived()``.  Two threads that miss at once each build an equal
    index, and one of them is kept.
    """
    indexes = _GRAPH_INDEXES.setdefault(graph, {})
    index = indexes.get((k, w))
    if index is None:
        index = indexes[(k, w)] = GraphMinimizerIndex(graph, k=k, w=w)
    return index
