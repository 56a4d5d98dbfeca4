"""Per-phase μarch attribution: the sums-to-whole-run invariant."""

import numpy as np
import pytest

from repro.kernels import create_kernel
from repro.obs import trace
from repro.obs.attribution import UNTRACED, PhaseAttributor, PhaseCounters
from repro.obs.spans import Tracer
from repro.uarch.cache import MACHINE_B
from repro.uarch.events import MachineProbe, OpClass
from repro.uarch.machine import TraceMachine


def _instrumented_run(machine, tracer):
    """Probe work split across nested spans plus untraced stretches."""
    machine.alu(OpClass.SCALAR_ALU, 10)  # before any span -> UNTRACED
    with tracer.span("phase/a"):
        machine.alu(OpClass.SCALAR_ALU, 100)
        machine.load(1 << 16)
        with tracer.span("phase/a/inner"):
            machine.alu(OpClass.VECTOR_ALU, 50)
            machine.branch(site=1, taken=True)
        machine.store(1 << 17)  # back in phase/a after the inner span
    with tracer.span("phase/b"):
        machine.alu(OpClass.SCALAR_MUL_DIV, 30)
    machine.alu(OpClass.SCALAR_ALU, 5)  # tail -> UNTRACED


def _attributed(machine=None):
    machine = machine or TraceMachine(MACHINE_B)
    tracer = Tracer()
    attributor = PhaseAttributor(machine)
    tracer.listeners.append(attributor)
    _instrumented_run(machine, tracer)
    attributor.finish()
    return machine, attributor


class TestExclusiveAttribution:
    def test_phase_sums_equal_whole_run(self):
        machine, attributor = _attributed()
        report = attributor.report(MACHINE_B)
        total = sum(phase["instructions"] for phase in report.values())
        assert total == machine.summary().instructions

    def test_inner_span_counts_are_exclusive(self):
        _, attributor = _attributed()
        inner = attributor.phases["phase/a/inner"]
        outer = attributor.phases["phase/a"]
        # 50 vector ops + 1 branch in the inner span, none leaked out.
        assert inner.instructions == 51
        assert inner.op_counts[list(OpClass).index(OpClass.VECTOR_ALU)] == 50
        # phase/a keeps its own 100 ALU + load + store only.
        assert outer.instructions == 102

    def test_untraced_bucket_collects_outside_work(self):
        _, attributor = _attributed()
        assert attributor.phases[UNTRACED].instructions == 15

    def test_repeated_spans_aggregate_by_name(self):
        machine = TraceMachine(MACHINE_B)
        tracer = Tracer()
        attributor = PhaseAttributor(machine)
        tracer.listeners.append(attributor)
        for _ in range(3):
            with tracer.span("loop"):
                machine.alu(OpClass.SCALAR_ALU, 7)
        attributor.finish()
        assert attributor.phases["loop"].instructions == 21

    def test_batched_events_across_span_boundaries(self):
        """Batch calls update counters atomically inside their span, so
        attribution stays exact when a logical stream is chopped into
        batches emitted across phase boundaries."""
        import numpy as np

        machine = TraceMachine(MACHINE_B)
        tracer = Tracer()
        attributor = PhaseAttributor(machine)
        tracer.listeners.append(attributor)
        addresses = np.arange(0, 400 * 64, 64, dtype=np.int64)
        outcomes = np.tile([True, True, False], 60)
        machine.load_block(addresses[:50])  # before any span -> UNTRACED
        with tracer.span("phase/a"):
            machine.load_block(addresses[50:300])
            machine.branch_trace(site=5, outcomes=outcomes[:100])
            with tracer.span("phase/a/inner"):
                machine.store_block(addresses[:80])
                machine.alu_bulk(OpClass.VECTOR_ALU, 500, dependent_count=120)
            machine.branch_trace(site=5, outcomes=outcomes[100:])
        with tracer.span("phase/b"):
            machine.load_block(addresses[300:])
        attributor.finish()

        summary = machine.summary()
        phases = attributor.phases.values()
        assert sum(p.instructions for p in phases) == summary.instructions
        report = attributor.report(MACHINE_B)
        assert sum(p["instructions"] for p in report.values()) == (
            summary.instructions
        )
        inner = attributor.phases["phase/a/inner"]
        assert inner.instructions == 80 + 500  # stores + ALU, exclusive
        outer = attributor.phases["phase/a"]
        assert outer.instructions == 250 + len(outcomes)
        assert attributor.phases[UNTRACED].instructions == 50
        assert attributor.phases["phase/b"].instructions == 100

    def test_report_drops_zero_instruction_phases(self):
        machine = TraceMachine(MACHINE_B)
        tracer = Tracer()
        attributor = PhaseAttributor(machine)
        tracer.listeners.append(attributor)
        with tracer.span("empty"):
            pass
        with tracer.span("busy"):
            machine.alu(OpClass.SCALAR_ALU, 3)
        attributor.finish()
        report = attributor.report(MACHINE_B)
        assert "empty" not in report
        assert set(report) == {"busy"}

    def test_report_orders_largest_phase_first(self):
        _, attributor = _attributed()
        report = attributor.report(MACHINE_B)
        counts = [phase["instructions"] for phase in report.values()]
        assert counts == sorted(counts, reverse=True)


class TestPhaseAnalyses:
    def test_phase_entries_carry_full_analysis(self):
        _, attributor = _attributed()
        report = attributor.report(MACHINE_B)
        phase = report["phase/a/inner"]
        assert set(phase) == {
            "instructions", "ipc", "topdown", "mpki", "instruction_mix",
            "branch_misprediction_rate",
        }
        assert phase["ipc"] > 0
        slots = phase["topdown"]
        assert set(slots) == {"retiring", "frontend_bound",
                              "bad_speculation", "core_bound", "memory_bound"}
        assert sum(slots.values()) == 1.0 or abs(sum(slots.values()) - 1.0) < 1e-9

    def test_phase_summary_matches_whole_run_when_single_phase(self):
        machine = TraceMachine(MACHINE_B)
        tracer = Tracer()
        attributor = PhaseAttributor(machine)
        tracer.listeners.append(attributor)
        with tracer.span("only"):
            machine.alu(OpClass.SCALAR_ALU, 64)
            machine.load(1 << 12)
            machine.branch(site=9, taken=False)
        attributor.finish()
        phase = attributor.phases["only"].summary(MACHINE_B)
        whole = machine.summary()
        assert phase.op_counts == whole.op_counts
        assert phase.branch_stats == whole.branch_stats
        assert phase.l1_misses == whole.l1_misses


class PerEventMachine(TraceMachine):
    """A TraceMachine fed one event at a time: the base class's batch
    fallbacks call the eager scalar methods, so nothing is ever pending."""

    load_block = MachineProbe.load_block
    store_block = MachineProbe.store_block
    branch_trace = MachineProbe.branch_trace
    touch_region = MachineProbe.touch_region


def _phases_of(machine, program):
    tracer = Tracer()
    attributor = PhaseAttributor(machine)
    tracer.listeners.append(attributor)
    with trace.use(tracer):
        program(machine, tracer)
    attributor.finish()
    return attributor.phases


def _phase_total(phases) -> PhaseCounters:
    total = PhaseCounters()
    for counters in phases.values():
        for index, count in enumerate(counters.op_counts):
            total.op_counts[index] += count
        for index in range(4):
            total.load_levels[index] += counters.load_levels[index]
            total.store_levels[index] += counters.store_levels[index]
        for name in ("branches", "mispredictions", "taken",
                     "dependent_latency_cycles", "l1_misses", "l2_misses",
                     "l3_misses"):
            setattr(total, name, getattr(total, name) + getattr(counters, name))
    return total


class TestDeferredEventsAtSpanBoundaries:
    def test_pending_events_charged_to_the_emitting_span(self):
        """Every block here is below its batch cutoff, so each span
        opens and closes with events still queued; they must land in
        the span that emitted them, exactly as per-event replay."""
        addresses = 64 * np.arange(120, dtype=np.int64) + 8
        outcomes = np.tile([True, True, False, True], 30)
        seen_pending = []

        def program(probe, tracer):
            probe.load_block(addresses[:40])
            seen_pending.append(bool(probe._memory))
            with tracer.span("phase/a"):
                probe.branch_trace(5, outcomes[:50])
                probe.store_block(addresses[40:90], 16)
                seen_pending.append(bool(probe._branches))
                with tracer.span("phase/a/inner"):
                    probe.load_block(addresses[:30], 100)
                    probe.branch_trace(6, outcomes[50:])
                    probe.alu_bulk(OpClass.VECTOR_ALU, 40, 10)
                probe.branch_run(7, 20)
                probe.load_block(addresses[60:], 8)
            probe.touch_region(1 << 20, 1000)

        deferred = TraceMachine(MACHINE_B)
        deferred_phases = _phases_of(deferred, program)
        assert seen_pending[:2] == [True, True]
        eager = PerEventMachine(MACHINE_B)
        eager_phases = _phases_of(eager, program)
        assert deferred_phases == eager_phases
        assert deferred.summary() == eager.summary()
        untraced = deferred_phases[UNTRACED]
        assert sum(untraced.load_levels) == 40 + 16  # 15 lines + tail
        assert deferred_phases["phase/a/inner"].branches == 70

    @pytest.mark.parametrize("name", ["ssw", "gwfa-cr"])
    def test_kernel_phases_sum_to_whole_run(self, name, small_suite):
        """The two kernels whose event streams deferral reshapes most:
        per-phase counters still sum exactly to the whole-run summary,
        and the queue left at the close of the execute span lands in
        that span, not in the untraced tail."""
        kernel = create_kernel(name, scale=0.25, seed=0)
        kernel.ensure_prepared()
        machine = TraceMachine(MACHINE_B)
        phases = _phases_of(
            machine, lambda probe, tracer: kernel.run(probe=probe))
        assert phases[UNTRACED] == PhaseCounters()
        assert phases[f"kernel/{name}/execute"].instructions > 0
        total = _phase_total(phases).summary(MACHINE_B)
        whole = machine.summary()
        assert total.op_counts == whole.op_counts
        assert total.load_level_counts == whole.load_level_counts
        assert total.store_level_counts == whole.store_level_counts
        assert total.branch_stats == whole.branch_stats
        assert (total.l1_misses, total.l2_misses, total.l3_misses) == (
            whole.l1_misses, whole.l2_misses, whole.l3_misses)
        assert total.dependent_latency_cycles == pytest.approx(
            whole.dependent_latency_cycles)
