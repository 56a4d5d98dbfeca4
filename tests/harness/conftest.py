"""Harness fixtures: per-test registration of the fake kernels."""

from __future__ import annotations

import pytest
from fakes import FAKES, CrashKernel, OkKernel

from repro.kernels.base import KERNEL_REGISTRY, register


@pytest.fixture
def fake_kernels():
    """Register the fake kernels for one test; reset counters."""
    for cls in FAKES:
        KERNEL_REGISTRY.pop(cls.name, None)
        register(cls)
    OkKernel.executions = 0
    CrashKernel.executions = 0
    yield
    for cls in FAKES:
        KERNEL_REGISTRY.pop(cls.name, None)
