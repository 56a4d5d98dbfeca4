"""Figure 10 / case study 6.1: SSW (Seq2Seq) vs GSSW (Seq2Graph).

Paper: GSSW shows ~3x more memory stalls than SSW because it keeps every
node's full DP matrix and swizzle-writes packed SIMD buffers into it,
while SSW stores only the previous column.  We also run the ablation the
paper proposes as a software fix: GSSW without the full-matrix stores.
"""

from _common import (BENCH_SCALE, BENCH_SEED, CHAR_STUDIES, assert_claims,
                     emit, engine_reports)

from repro.align.gssw import GSSW
from repro.align.scoring import VG_DEFAULT
from repro.analysis.report import render_table
from repro.kernels import create_kernel
from repro.uarch.machine import TraceMachine
from repro.uarch.topdown import analyze


def run_experiment():
    # gssw is a cache hit from figs 6-8; only ssw characterizes fresh.
    reports = engine_reports(("ssw", "gssw"), CHAR_STUDIES)
    # Ablation: GSSW with the full-matrix swizzle writes disabled (the
    # optimization Section 6.1 suggests).
    kernel = create_kernel("gssw", scale=BENCH_SCALE, seed=BENCH_SEED)
    kernel.ensure_prepared()
    machine = TraceMachine()
    for query, subgraph in kernel.items:
        GSSW(query, VG_DEFAULT, probe=machine, store_full_matrix=False).align(subgraph)
    ablation = analyze(machine.summary())
    return reports, ablation


def test_fig10(benchmark):
    reports, ablation = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name in ("ssw", "gssw"):
        topdown = reports[name].topdown
        rows.append([
            name, f"{reports[name].ipc:.2f}",
            f"{topdown['retiring']:.2f}", f"{topdown['core_bound']:.2f}",
            f"{topdown['memory_bound']:.3f}",
            f"{reports[name].mpki['l1']:.2f}",
        ])
    rows.append([
        "gssw (no swizzle)", f"{ablation.ipc:.2f}",
        f"{ablation.retiring:.2f}", f"{ablation.core_bound:.2f}",
        f"{ablation.memory_bound:.3f}", "-",
    ])
    emit(
        "fig10_seq2seq_vs_seq2graph",
        render_table(
            ["kernel", "IPC", "retiring", "core", "memory", "l1 mpki"],
            rows,
            title="Figure 10: SSW vs GSSW (paper: GSSW ~3x more memory stalls)",
        ),
    )
    assert_claims("Fig. 10", reports)
    # Bench-local (the ablation is the bench's own run, not a kernel report):
    # the proposed optimization recovers most of the gap.
    assert ablation.memory_bound < 0.5 * reports["gssw"].topdown["memory_bound"]
