"""Figure 8: dynamic instruction mix (hierarchical bins).

Paper shape: GSSW is vector-heavy (hand-vectorized); GWFA has few vector
operations (graph code defeats autovectorization); GBV is scalar (64-bit
bitvector words); PGSGD heavily uses (scalar-)SSE floating point; GBWT
and TC are scalar+memory.
"""

from _common import CHAR_STUDIES, assert_claims, emit, engine_reports

from repro.analysis.report import render_table
from repro.kernels import CPU_KERNELS

BINS = ("vector", "memory", "branch", "scalar", "register")


def run_experiment():
    return engine_reports(CPU_KERNELS, CHAR_STUDIES)


def test_fig8(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [name, *(f"{reports[name].instruction_mix[b]:.2f}" for b in BINS)]
        for name in CPU_KERNELS
    ]
    emit(
        "fig8_instmix",
        render_table(["kernel", *BINS], rows,
                     title="Figure 8: dynamic instruction mix fractions"),
    )
    assert_claims("Fig. 8", reports)
