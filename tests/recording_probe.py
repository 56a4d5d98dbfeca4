"""A probe that records every call, for event-stream golden tests.

:class:`RecordingProbe` keeps calls verbatim for golden tests, which pin
the sha256 prefix of a kernel's recorded ``(method, args)`` stream: any
reordering, merging or splitting of probe calls, or any changed payload,
changes the hash even where the machine summary would not notice.
"""

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
