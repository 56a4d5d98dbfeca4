"""Table 6: kernel IPC on the 4-wide core model.

Paper: TC 3.14 > GWFA-lr 2.90 > GWFA-cr 2.67 > GBV 2.22 > GBWT 1.92 >
GSSW 1.77 > PGSGD 0.88.  Reproduced claims: TC highest, PGSGD lowest by
far, GSSW ~1.8, and the DP-kernel cluster in between.
"""

from _common import CHAR_STUDIES, assert_claims, emit, engine_reports

from repro.analysis.report import render_table
from repro.kernels import CPU_KERNELS

PAPER_IPC = {
    "gssw": 1.77, "gbv": 2.22, "gbwt": 1.92, "gwfa-cr": 2.67,
    "gwfa-lr": 2.90, "pgsgd": 0.88, "tc": 3.14,
}


def run_experiment():
    return engine_reports(CPU_KERNELS, CHAR_STUDIES)


def test_table6(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [name, f"{reports[name].ipc:.2f}", f"{PAPER_IPC[name]:.2f}"]
        for name in sorted(CPU_KERNELS, key=lambda n: -reports[n].ipc)
    ]
    emit(
        "table6_ipc",
        render_table(["kernel", "IPC (model)", "IPC (paper)"], rows,
                     title="Table 6: kernel IPC"),
    )
    assert_claims("Table 6", reports)
