"""A replayed probe-call stream equals live tracing.

Each CPU kernel runs once per CPU backend under a live
:class:`TraceMachine` while a :class:`CallLog` keeps private copies of
every call it forwards; the copies then replay into a fresh machine.
On the way to the live machine every array or list argument passes
through a buffer that is overwritten as soon as the call returns, as a
kernel reusing its buffers would do.  Queued blocks replay after that,
so the summaries agree only if the machine keeps its own copy of each
pending payload.
"""

import numpy as np
import pytest

from repro.kernels import create_kernel
from repro.uarch.events import PROBE_METHODS, CallLog, MachineProbe
from repro.uarch.machine import TraceMachine

CPU_KERNELS = ("gbv", "gbwt", "gssw", "gwfa-cr", "gwfa-lr", "pgsgd", "ssw",
               "tc")

#: Every CPU kernel on the vectorized backend (the default), plus the
#: scalar backend of the kernels that have one.
KERNEL_BACKENDS = ([(name, "vectorized") for name in CPU_KERNELS]
                   + [(name, "scalar")
                      for name in ("gbwt", "gssw", "pgsgd", "ssw", "tc")])


def _reused(value):
    """A buffer holding *value*, and a function that overwrites it."""
    if isinstance(value, np.ndarray):
        buffer = value.copy()
        return buffer, lambda: buffer.__setitem__(..., ~buffer)
    if isinstance(value, list):
        buffer = list(value)
        return buffer, lambda: buffer.__setitem__(
            slice(None), [~item for item in buffer])
    return value, lambda: None


class BufferReuser(MachineProbe):
    """Forwards calls through buffers that change once the call returns."""

    def __init__(self, target):
        self.target = target


def _forward(method):
    def call(self, *args, **kwargs):
        args, clobbers = zip(*map(_reused, args)) if args else ((), ())
        names = list(kwargs)
        values, kw_clobbers = (zip(*(_reused(kwargs[n]) for n in names))
                               if names else ((), ()))
        getattr(self.target, method)(*args, **dict(zip(names, values)))
        for clobber in clobbers + kw_clobbers:
            clobber()
    return call


for _method in PROBE_METHODS:
    setattr(BufferReuser, _method, _forward(_method))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, backend", KERNEL_BACKENDS)
def test_replay_equals_live_tracing(name, backend, seed, fresh_target_space):
    kernel = create_kernel(name, scale=0.05, seed=seed, backend=backend)
    kernel.ensure_prepared()
    live = TraceMachine()
    log = CallLog(BufferReuser(live))
    kernel._execute(log)
    replayed = TraceMachine()
    log.replay(replayed)
    assert log.calls
    assert replayed.summary() == live.summary()
