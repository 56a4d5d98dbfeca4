"""The sweep layer: run the scenario matrix as one gated grid.

:mod:`repro.sweep.driver` compiles a manifest's cells × kernels × scales
× seeds into executor jobs and runs them (pool, service, or test
runner), holding every ``fidelity = "paper"`` cell to the claims table
(:mod:`repro.claims`).  The companion :mod:`repro.analysis.aggregate`
turns a :class:`SweepResult` into summary tables and cross-kernel
leaderboards; ``repro sweep`` is the CLI over all of it.
"""

from repro.sweep.driver import (
    SWEEP_FILE,
    CellResult,
    SweepPlan,
    SweepResult,
    compile_sweep,
    load_sweep,
    run_sweep,
    save_sweep,
)

__all__ = [
    "SWEEP_FILE", "CellResult", "SweepPlan", "SweepResult",
    "compile_sweep", "load_sweep", "run_sweep", "save_sweep",
]
