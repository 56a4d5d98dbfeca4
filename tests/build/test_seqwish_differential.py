"""Vectorized transclose is bit-identical to the scalar reference.

The seqwish interval-stab and tree phases were converted to batched
numpy purely for speed (the attribution study ranked them among the top
scalar hot loops).  Like the batched probe API itself
(``tests/uarch/test_batch_events.py``), the conversion must be
invisible: same closure outputs, same probe event stream (the batched
side reassembles flushes in scalar order, so whole
:class:`MachineSummary` objects match, not just totals), and the same
per-phase attribution under the span tracer.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build.seqwish import transclose
from repro.build.wfmash import all_to_all
from repro.obs import trace
from repro.obs.attribution import PhaseAttributor
from repro.obs.spans import Tracer
from repro.sequence.records import SequenceRecord
from repro.uarch.cache import MACHINE_B
from repro.uarch.machine import TraceMachine


def _corpus(seed: int, n_records: int, length: int, mutations: int):
    """Related records (an ancestor plus mutated copies), so all_to_all
    yields real overlapping match structure."""
    rng = random.Random(seed)
    base = "".join(rng.choice("ACGT") for _ in range(length))
    records = [SequenceRecord("r0", base)]
    for i in range(1, n_records):
        s = list(base)
        for _ in range(mutations):
            s[rng.randrange(len(s))] = rng.choice("ACGT")
        records.append(SequenceRecord(f"r{i}", "".join(s)))
    return records


def _close(records, matches, backend):
    machine = TraceMachine()
    result = transclose(records, matches, probe=machine, backend=backend)
    return result, machine


class TestTranscloseDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=200),
        n_records=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=40, max_value=400),
        mutations=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_outputs_and_events_bit_identical(self, seed, n_records,
                                              length, mutations):
        records = _corpus(seed, n_records, length, mutations)
        matches, _ = all_to_all(records)
        fast, fast_machine = _close(records, matches, backend="vectorized")
        slow, slow_machine = _close(records, matches, backend="scalar")
        assert fast.closure_of == slow.closure_of
        assert fast.closure_base == slow.closure_base
        assert fast.stats == slow.stats
        assert fast_machine.summary() == slow_machine.summary()

    def test_per_phase_attribution_identical(self):
        records = _corpus(seed=7, n_records=4, length=300, mutations=8)
        matches, _ = all_to_all(records)

        def attributed(backend):
            machine = TraceMachine(MACHINE_B)
            tracer = Tracer()
            attributor = PhaseAttributor(machine)
            tracer.listeners.append(attributor)
            with trace.use(tracer):
                transclose(records, matches, probe=machine,
                           backend=backend)
            attributor.finish()
            return machine, attributor

        fast_machine, fast = attributed("vectorized")
        slow_machine, slow = attributed("scalar")
        assert set(fast.phases) == set(slow.phases)
        for phase in fast.phases:
            assert fast.phases[phase] == slow.phases[phase], phase
        # Sum-exactness survives the conversion on both sides.
        for machine, attributor in ((fast_machine, fast),
                                    (slow_machine, slow)):
            total = sum(p.instructions for p in attributor.phases.values())
            assert total == machine.summary().instructions
