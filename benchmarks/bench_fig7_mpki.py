"""Figure 7: cache misses per kilo-instruction (exclusive).

Paper shape: the DP kernels miss mostly in L1 and almost never in L3
(they align to cache-resident subgraphs); PGSGD misses at every level
(whole-graph random access).
"""

from _common import CHAR_STUDIES, assert_claims, emit, engine_reports

from repro.analysis.report import render_table
from repro.kernels import CPU_KERNELS


def run_experiment():
    return engine_reports(CPU_KERNELS, CHAR_STUDIES)


def test_fig7(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [name, *(f"{reports[name].mpki[level]:.2f}" for level in ("l1", "l2", "l3"))]
        for name in CPU_KERNELS
    ]
    emit(
        "fig7_mpki",
        render_table(["kernel", "l1 mpki", "l2 mpki", "l3 mpki"], rows,
                     title="Figure 7: exclusive misses per kilo-instruction"),
    )
    assert_claims("Fig. 7", reports)
