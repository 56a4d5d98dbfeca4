"""Tables 2-4: dataset inventories and kernel execution times.

Paper Table 4 (Machine B, seconds): GWFA-cr 16657 >> TC 755 ~ GWFA-lr
720 > PGSGD 285 > GBV 192 > GSSW 35 > GBWT 23.  Absolute times are not
comparable (Python vs C++, downscaled data); the per-kernel work
ordering and the dataset inventory are the reproducible artifacts.
"""

from _common import bench_data, emit, engine_reports

from repro.analysis.report import render_table
from repro.kernels import SUITE_KERNELS, create_kernel

PAPER_TABLE4_SECONDS = {
    "gbv": 192, "gssw": 35, "gbwt": 23, "gwfa-cr": 16657,
    "gwfa-lr": 720, "pgsgd": 285, "tc": 755,
}


def run_experiment():
    return engine_reports(SUITE_KERNELS, ("timing",))


def test_tables_2_3_4(benchmark):
    reports = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    data = bench_data()
    inventory = render_table(
        ["item", "value"],
        [
            ["graph nodes", data.graph.node_count],
            ["graph edges", data.graph.edge_count],
            ["graph bases", data.graph.total_sequence_length],
            ["haplotype paths", data.graph.path_count],
            ["short reads", len(data.short_reads)],
            ["long reads", len(data.long_reads)],
            ["assemblies", len(data.assemblies)],
        ],
        title="Table 2 analog: suite corpus",
    )
    kernel_rows = []
    for name in SUITE_KERNELS:
        kernel = create_kernel(name)  # metadata only; never prepared
        report = reports[name]
        kernel_rows.append(
            [name, kernel.parent_tool, kernel.input_type,
             report.inputs_processed, f"{report.wall_seconds:.3f}",
             PAPER_TABLE4_SECONDS.get(name, "-")]
        )
    text = inventory + "\n\n" + render_table(
        ["kernel", "parent tool", "input type", "#inputs", "seconds",
         "paper seconds"],
        kernel_rows,
        title="Tables 3+4 analog: kernel datasets and execution times",
    )
    emit("table4_kernel_times", text)
    # Bench-local: these orderings read host wall times, not simulated counters.
    times = {name: reports[name].wall_seconds for name in SUITE_KERNELS}
    # Shape: the chromosome GWFA variant far outweighs the read variant.
    assert times["gwfa-cr"] > times["gwfa-lr"]
    # GBWT is the cheapest CPU kernel per unit, as in the paper.
    assert times["gbwt"] < times["gssw"]
