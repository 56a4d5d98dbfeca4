"""Index substrate: minimizers, suffix structures, FM-index, GBWT."""

from repro.index.fmindex import FMIndex, FMRange
from repro.index.gbwt import ENDMARKER, GBWT, GBWTState
from repro.index.minimizer import (
    GraphHit,
    GraphMinimizerIndex,
    Minimizer,
    Seed,
    SequenceMinimizerIndex,
    canonical_hash,
    encode_kmer,
    graph_minimizer_index,
    hash64,
    minimizers,
)
from repro.index.suffix import (
    bwt,
    bwt_from_suffix_array,
    inverse_bwt,
    longest_common_prefix_array,
    suffix_array,
    suffix_array_of_string,
)

__all__ = [
    "FMIndex", "FMRange",
    "ENDMARKER", "GBWT", "GBWTState",
    "GraphHit", "GraphMinimizerIndex", "Minimizer", "Seed",
    "SequenceMinimizerIndex", "canonical_hash", "encode_kmer",
    "graph_minimizer_index", "hash64", "minimizers",
    "bwt", "bwt_from_suffix_array", "inverse_bwt",
    "longest_common_prefix_array", "suffix_array", "suffix_array_of_string",
]
