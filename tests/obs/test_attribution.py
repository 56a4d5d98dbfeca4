"""Per-phase μarch attribution: the sums-to-whole-run invariant."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import create_kernel
from repro.obs import trace
from repro.obs.attribution import UNTRACED, PhaseAttributor
from repro.obs.spans import Tracer
from repro.uarch.cache import MACHINE_B, CacheConfig
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
        report = attributor.report()
        total = sum(phase["instructions"] for phase in report.values())
        assert total == machine.summary().instructions

    def test_inner_span_counts_are_exclusive(self):
        _, attributor = _attributed()
        inner = attributor.phases["phase/a/inner"]
        outer = attributor.phases["phase/a"]
        # 50 vector ops + 1 branch in the inner span, none leaked out.
        assert inner.instructions == 51
        assert inner.op_counts[OpClass.VECTOR_ALU] == 50
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
        report = attributor.report()
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
        report = attributor.report()
        assert "empty" not in report
        assert set(report) == {"busy"}

    def test_report_orders_largest_phase_first(self):
        _, attributor = _attributed()
        report = attributor.report()
        counts = [phase["instructions"] for phase in report.values()]
        assert counts == sorted(counts, reverse=True)


class TestPhaseAnalyses:
    def test_phase_entries_carry_full_analysis(self):
        _, attributor = _attributed()
        report = attributor.report()
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
        phase = attributor.phases["only"]
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


def _phase_total(phases):
    return functools.reduce(operator.add, phases.values())


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
        # 15 lines + tail
        assert sum(untraced.load_level_counts.values()) == 40 + 16
        assert deferred_phases["phase/a/inner"].branch_stats.branches == 70

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
        assert phases[UNTRACED] == TraceMachine(MACHINE_B).summary()
        assert phases[f"kernel/{name}/execute"].instructions > 0
        total = _phase_total(phases)
        whole = machine.summary()
        assert total.op_counts == whole.op_counts
        assert total.load_level_counts == whole.load_level_counts
        assert total.store_level_counts == whole.store_level_counts
        assert total.branch_stats == whole.branch_stats
        assert (total.l1_misses, total.l2_misses, total.l3_misses) == (
            whole.l1_misses, whole.l2_misses, whole.l3_misses)
        assert total.dependent_latency_cycles == pytest.approx(
            whole.dependent_latency_cycles)


#: Tiny hierarchy so random programs evict and miss at every level.
TINY = CacheConfig(
    name="tiny",
    l1_size=4 * 1024, l1_ways=2,
    l2_size=16 * 1024, l2_ways=4,
    l3_size=64 * 1024, l3_ways=4,
)

_addresses = st.builds(
    lambda n, seed: np.random.default_rng(seed).integers(0, 1 << 18, n),
    st.integers(0, 600), st.integers(0, 99))
_outcomes = st.builds(
    lambda n, seed: np.random.default_rng(seed).random(n) < 0.7,
    st.integers(0, 200), st.integers(0, 99))
_ops = st.sampled_from(list(OpClass))
_address = st.integers(0, (1 << 18) - 1)
_site = st.integers(0, 15)

#: One probe call: ``(method, args)``, scalar or batched.
_calls = st.one_of(
    st.tuples(st.just("alu"), st.tuples(_ops, st.integers(1, 9),
                                        st.booleans())),
    st.tuples(st.sampled_from(["load", "store"]),
              st.tuples(_address, st.sampled_from([1, 8, 100]))),
    st.tuples(st.just("branch"), st.tuples(_site, st.booleans())),
    st.tuples(st.just("branch_run"), st.tuples(_site, st.integers(0, 20))),
    st.tuples(st.sampled_from(["load_block", "store_block"]),
              st.tuples(_addresses, st.sampled_from([8, 64]))),
    st.tuples(st.just("branch_trace"), st.tuples(_site, _outcomes)),
    st.builds(lambda op, n, k: ("alu_bulk", (op, n, min(k, n))),
              _ops, st.integers(0, 500), st.integers(0, 500)),
    st.tuples(st.just("touch_region"),
              st.tuples(_address, st.integers(0, 3000))),
)

#: A program: probe calls and ``("span", name, program)`` nests.
_programs = st.recursive(
    st.lists(_calls, max_size=6),
    lambda inner: st.lists(
        st.one_of(_calls, st.tuples(st.just("span"),
                                    st.sampled_from(["a", "b", "a/in"]),
                                    inner)),
        max_size=6),
    max_leaves=30,
)


def _run_program(machine, tracer, program):
    for step in program:
        if step[0] == "span":
            with tracer.span(step[1]):
                _run_program(machine, tracer, step[2])
        else:
            method, args = step
            getattr(machine, method)(*args)


class TestPhaseArithmetic:
    @given(program=_programs)
    @settings(max_examples=60, deadline=None)
    def test_phase_summaries_sum_to_whole_run(self, program):
        """Every counter — op counts, load/store levels, branch stats,
        L1/L2/L3 misses and dependent latency — of the phase summaries
        adds up to the whole run's summary."""
        machine = TraceMachine(TINY)
        phases = _phases_of(
            machine, lambda probe, tracer: _run_program(probe, tracer,
                                                        program))
        assert _phase_total(phases) == machine.summary()
