"""Figure 6: top-down microarchitecture analysis of the CPU kernels.

Paper shape: GSSW/GBV/GWFA core-bound (GSSW also memory-bound); GBV has
high bad-speculation; GBWT is front-end/bad-spec exposed but NOT memory
bound; PGSGD is memory+core bound; TC retires the most.
"""

from _common import CHAR_STUDIES, assert_claims, emit, engine_reports

from repro.analysis.report import render_stacked_fractions, render_table
from repro.kernels import CPU_KERNELS

COMPONENTS = ("retiring", "frontend_bound", "bad_speculation", "core_bound",
              "memory_bound")


def run_experiment():
    # The full characterization study set: one traced run per kernel
    # serves this figure AND figs 7/8 + Table 6 from the result cache.
    return engine_reports(CPU_KERNELS, CHAR_STUDIES)


def test_fig6(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    fractions = {name: report.topdown for name, report in reports.items()}
    rows = [
        [name, *(f"{fractions[name][c]:.2f}" for c in COMPONENTS)]
        for name in CPU_KERNELS
    ]
    text = render_table(
        ["kernel", *COMPONENTS], rows, title="Figure 6: top-down slot fractions"
    ) + "\n\n" + render_stacked_fractions(fractions, COMPONENTS)
    emit("fig6_topdown", text)
    assert_claims("Fig. 6", reports)
