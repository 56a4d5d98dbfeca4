"""Disposable fake kernels for harness-engine tests.

Registered per-test by the ``fake_kernels`` fixture (tests/harness/
conftest.py) and removed afterwards, so the rest of the suite never sees
them.  The executor's fork-based workers inherit the registration, which
lets the crash/hang/die kernels exercise failure isolation across
process boundaries.
"""

from __future__ import annotations

import os
import time

from repro.kernels.base import Kernel, KernelResult
from repro.uarch.events import OpClass


class _FakeKernel(Kernel):
    parent_tool = "fake"
    input_type = "nothing"

    def prepare(self) -> None:
        pass


class OkKernel(_FakeKernel):
    """A well-behaved kernel with an in-process execution counter."""

    name = "fake-ok"
    executions = 0

    def _execute(self, probe):
        type(self).executions += 1
        probe.alu(OpClass.SCALAR_ALU, 40)
        probe.load(1 << 20)
        probe.branch_run(7, taken_count=10)
        return KernelResult(
            kernel=self.name, wall_seconds=0.0, inputs_processed=3,
            work={"units": 1.0},
        )


class SpanSpamKernel(_FakeKernel):
    """Emits a burst of tiny spans — pressure for the span-spool cap."""

    name = "fake-spanspam"
    spans = 64

    def _execute(self, probe):
        from repro.obs import trace

        for i in range(type(self).spans):
            with trace.span(f"spam/{i}"):
                pass
        probe.alu(OpClass.SCALAR_ALU, 1)
        return KernelResult(kernel=self.name, wall_seconds=0.0,
                            inputs_processed=1)


class CrashKernel(_FakeKernel):
    """Raises from its hot loop."""

    name = "fake-crash"
    executions = 0

    def _execute(self, probe):
        type(self).executions += 1
        raise RuntimeError("boom")


class HangKernel(_FakeKernel):
    """Never finishes (within any reasonable test budget)."""

    name = "fake-hang"

    def _execute(self, probe):
        time.sleep(300)
        return KernelResult(kernel=self.name, wall_seconds=0.0,
                            inputs_processed=1)


class NapKernel(_FakeKernel):
    """Finishes after a few seconds: past a sub-second timeout, but
    quick enough that a run ignoring the timeout still ends."""

    name = "fake-nap"

    def _execute(self, probe):
        time.sleep(3)
        return KernelResult(kernel=self.name, wall_seconds=0.0,
                            inputs_processed=1)


class DozeKernel(_FakeKernel):
    """Finishes after 20 ms: past a 5 ms timeout, yet its report lands
    inside the executor's first 50 ms poll."""

    name = "fake-doze"

    def _execute(self, probe):
        time.sleep(0.02)
        return KernelResult(kernel=self.name, wall_seconds=0.0,
                            inputs_processed=1)


class DieKernel(_FakeKernel):
    """Kills its own worker process outright (models a native crash)."""

    name = "fake-die"

    def _execute(self, probe):
        os._exit(3)


class BadOracleKernel(OkKernel):
    """Runs fine, but its oracle self-check raises."""

    name = "fake-badoracle"

    def validate(self) -> None:
        raise AssertionError("oracle mismatch")


FAKES = (OkKernel, SpanSpamKernel, CrashKernel, HangKernel, NapKernel,
         DozeKernel, DieKernel, BadOracleKernel)
