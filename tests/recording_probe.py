"""Probes that record every call, for event-stream tests.

:class:`RecordingProbe` keeps calls verbatim for golden tests, which pin
the sha256 prefix of a kernel's recorded ``(method, args)`` stream: any
reordering, merging or splitting of probe calls, or any changed payload,
changes the hash even where the machine summary would not notice.
:class:`CallLog` keeps private copies of the calls it forwards, so a
stream can be replayed into another probe.
"""

import copy
import hashlib
import json

import numpy as np

from repro.uarch.events import MachineProbe, OpClass


def plain(value):
    """A probe argument as JSON-able plain data (arrays become lists)."""
    if isinstance(value, OpClass):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "biu":
        return value.tolist()
    return [plain(item) for item in value]


class RecordingProbe(MachineProbe):
    """Keeps every probe call verbatim; batch payloads become lists."""

    def __init__(self):
        self.calls = []

    def _record(self, method, *args):
        self.calls.append([method, [plain(arg) for arg in args]])

    def alu(self, op_class, count=1, dependent=False):
        self._record("alu", op_class, count, dependent)

    def load(self, address, size=8):
        self._record("load", address, size)

    def store(self, address, size=8):
        self._record("store", address, size)

    def branch(self, site, taken):
        self._record("branch", site, taken)

    def branch_run(self, site, taken_count):
        self._record("branch_run", site, taken_count)

    def branch_bulk(self, site, taken_count):
        self._record("branch_bulk", site, taken_count)

    def load_block(self, addresses, size=8):
        self._record("load_block", addresses, size)

    def store_block(self, addresses, size=8):
        self._record("store_block", addresses, size)

    def branch_trace(self, site, outcomes):
        self._record("branch_trace", site, outcomes)

    def alu_bulk(self, op_class, count, dependent_count=0):
        self._record("alu_bulk", op_class, count, dependent_count)

    def touch_region(self, address, size, stride=64):
        self._record("touch_region", address, size, stride)

    def digest(self):
        payload = json.dumps(self.calls, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Every ``MachineProbe`` entry point a kernel may call.
PROBE_METHODS = tuple(name for name, value in vars(MachineProbe).items()
                      if callable(value) and not name.startswith("_"))


class CallLog(MachineProbe):
    """Forwards every call to *target* and keeps a private copy of it.

    Arguments are deep-copied when the call is made, so a kernel that
    reuses a buffer after passing it cannot change the log; the live
    *target* sees the caller's own objects.
    """

    def __init__(self, target):
        self.target = target
        self.calls = []

    def replay(self, probe):
        """Make the logged calls again, in order, on *probe*."""
        for method, args, kwargs in self.calls:
            getattr(probe, method)(*args, **kwargs)


def _logged(method):
    def call(self, *args, **kwargs):
        self.calls.append(
            (method, copy.deepcopy(args), copy.deepcopy(kwargs)))
        getattr(self.target, method)(*args, **kwargs)
    call.__name__ = method
    return call


for _method in PROBE_METHODS:
    setattr(CallLog, _method, _logged(_method))
