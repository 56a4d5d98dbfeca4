"""CPU-vs-GPU layout crossover: where the GPU backend starts to pay.

The paper's GPU chapter frames PGSGD-GPU as a throughput play: the
device retires Hogwild updates far faster than a CPU core, but every
run pays fixed costs the CPU loop never sees — a kernel launch per
annealing iteration (the schedule's barriers force relaunches) and the
layout array's PCIe round trip.  Small graphs therefore run faster on
the CPU; past a break-even graph size the device rate wins, and the
gap keeps widening as the layout array outgrows the CPU cache ladder
(the Section 5.3 DRAM-latency regime).

This bench measures the device update rate once — a real
:func:`~repro.layout.pgsgd_gpu.pgsgd_layout_gpu` run on a synthetic
pangenome graph, the same simulator the registered ``pgsgd`` GPU
backend executes — then sweeps a modeled node-count ramp through the
calibrated CPU and GPU wall models
(:func:`~repro.layout.pgsgd_gpu.cpu_pgsgd_time_model` /
:func:`~repro.layout.pgsgd_gpu.gpu_pgsgd_wall_model`) and records the
interpolated crossover point.  Update counts scale with graph size
(annealing work is proportional to path steps), so the crossover is a
property of the overheads and latencies, not of a fixed work budget.

Each run appends a ``kind: "modelled"`` entry to
``BENCH_layout_crossover.json`` at the repo root through
:func:`repro.obs.baseline.append_entry`.  The regression sentinel
(``repro obs check``) judges the crossover point and the speedup at the
largest graph against earlier entries.  The models are deterministic,
so the trajectory is stable run to run.

Runs under plain pytest or standalone:
``PYTHONPATH=src python benchmarks/bench_layout_crossover.py``.
"""

from __future__ import annotations

from _common import emit

from repro.analysis.report import render_table
from repro.graph.builder import simulate_graph_pangenome
from repro.layout.pgsgd import PGSGDParams
from repro.layout.pgsgd_gpu import (
    cpu_pgsgd_time_model,
    gpu_pgsgd_wall_model,
    pgsgd_layout_gpu,
)
from repro.obs.baseline import append_entry

#: Modeled graph sizes (node counts), small toys through a
#: chromosome-scale component whose layout array dwarfs the LLC.
NODE_RAMP = (250, 500, 1000, 2000, 4000, 8000, 16000, 64000,
             250_000, 1_000_000)

#: Annealing updates per node per layout run (~30 iterations at a few
#: term updates per node each — the odgi-style budget).
UPDATES_PER_NODE = 100

#: Calibration run: enough updates for a stable device rate while the
#: Python-level simulator stays interactive.
CALIBRATION_PARAMS = PGSGDParams(iterations=30, updates_per_iteration=600)


def _interpolated_crossover(points: list[dict]) -> "float | None":
    """Node count where modeled speedup crosses 1.0 (log-linear
    interpolation between the bracketing ramp points)."""
    import math

    for below, above in zip(points, points[1:]):
        if below["speedup"] < 1.0 <= above["speedup"]:
            x0, x1 = math.log(below["nodes"]), math.log(above["nodes"])
            y0, y1 = below["speedup"], above["speedup"]
            return round(math.exp(x0 + (1.0 - y0) * (x1 - x0) / (y1 - y0)))
    return None


def run_experiment() -> dict:
    gp = simulate_graph_pangenome(genome_length=4000, n_haplotypes=6,
                                  seed=0)
    gpu = pgsgd_layout_gpu(gp.graph, params=CALIBRATION_PARAMS)
    device_seconds_per_update = (gpu.report.time_ms / 1e3
                                 / gpu.layout.updates)

    points = []
    for nodes in NODE_RAMP:
        anchors = 2 * nodes
        updates = UPDATES_PER_NODE * nodes
        cpu_seconds = cpu_pgsgd_time_model(anchors, updates)
        gpu_seconds = gpu_pgsgd_wall_model(
            device_seconds_per_update, anchors, updates,
            iterations=CALIBRATION_PARAMS.iterations,
        )
        points.append({
            "nodes": nodes,
            "footprint_kb": round(anchors * 16 / 1024, 1),
            "cpu_ms": round(cpu_seconds * 1e3, 4),
            "gpu_ms": round(gpu_seconds * 1e3, 4),
            "speedup": round(cpu_seconds / gpu_seconds, 4),
        })

    crossover = _interpolated_crossover(points)
    return {
        "calibration": {
            "graph_nodes": gp.graph.node_count,
            "updates": gpu.layout.updates,
            "device_ns_per_update": round(
                device_seconds_per_update * 1e9, 4),
            "theoretical_occupancy": round(
                gpu.report.theoretical_occupancy, 4),
            "warp_utilization": round(gpu.report.warp_utilization, 4),
        },
        "updates_per_node": UPDATES_PER_NODE,
        "points": points,
        "crossover_nodes": crossover,
        "gpu_speedup_at_max": points[-1]["speedup"],
    }


def _emit(results: dict) -> None:
    rows = [
        [p["nodes"], p["footprint_kb"], f"{p['cpu_ms']:.3f}",
         f"{p['gpu_ms']:.3f}", f"{p['speedup']:.2f}x",
         "gpu" if p["speedup"] >= 1.0 else "cpu"]
        for p in results["points"]
    ]
    emit(
        "layout_crossover",
        render_table(
            ["nodes", "layout KB", "CPU ms", "GPU ms", "speedup",
             "winner"],
            rows,
            title=(f"PGSGD CPU vs GPU wall over graph size "
                   f"(crossover ~{results['crossover_nodes']} nodes)"),
        ),
    )


def test_layout_crossover():
    results = run_experiment()
    _emit(results)
    points = results["points"]
    # The fixed launch + transfer overheads must make the CPU win small
    # graphs, and the device rate must win big ones.
    assert points[0]["speedup"] < 1.0, (
        f"GPU should lose at {points[0]['nodes']} nodes "
        f"(speedup {points[0]['speedup']})"
    )
    assert points[-1]["speedup"] > 1.0, (
        f"GPU should win at {points[-1]['nodes']} nodes "
        f"(speedup {points[-1]['speedup']})"
    )
    assert results["crossover_nodes"] is not None, \
        "no CPU->GPU crossover inside the modeled ramp"
    # The advantage keeps widening as the layout array falls down the
    # CPU cache ladder.
    assert points[-1]["speedup"] > points[0]["speedup"]
    # The calibration run is the registered gpu backend's simulator:
    # occupancy pinned by 44 regs/thread at block 1024.
    assert abs(results["calibration"]["theoretical_occupancy"] - 2 / 3) \
        < 0.01
    prior = append_entry("layout_crossover", results, kind="modelled")
    print(f"trajectory: BENCH_layout_crossover.json ({len(prior) + 1} entries)")


if __name__ == "__main__":
    test_layout_crossover()
