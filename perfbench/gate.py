"""The correctness gate: digests of what each kernel report says.

A digest covers the simulated statistics (``instructions``, ``topdown``,
``ipc``, ``mpki``, ``instruction_mix``, ``branch_misprediction_rate``)
and the ``work`` / ``inputs_processed`` counters.  Host times are not
in it, so the same job gives the same digest on every pass, traced or
not, on every host.  ``reference.json`` next to this file holds the
digests of both batch workloads on their fixed dataset; ``python3
perfbench/run.py --write-reference`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: The report fields a digest covers.
DIGEST_FIELDS = ("instructions", "topdown", "ipc", "mpki", "instruction_mix",
                 "branch_misprediction_rate", "work", "inputs_processed")


class GateError(AssertionError):
    """A correctness check failed; the run reports no metric."""


def report_digest(report) -> str:
    payload = {name: getattr(report, name) for name in DIGEST_FIELDS}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def pass_digests(reports: dict) -> dict[str, str]:
    """kernel -> digest for one pass; a failed kernel fails the gate."""
    failed = {name: r.error for name, r in reports.items() if r.error}
    if failed:
        raise GateError(f"kernels failed: {failed}")
    return {name: report_digest(r) for name, r in sorted(reports.items())}


def check_identical(passes: list[dict[str, str]]) -> None:
    """Every pass must produce the first pass's digests."""
    for index, digests in enumerate(passes[1:], start=1):
        if digests != passes[0]:
            changed = sorted(k for k in digests if digests[k] != passes[0].get(k))
            raise GateError(f"pass {index} digests differ from pass 0 for "
                            f"{changed}")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def check_reference(reference: dict, workload: str, scale: float,
                    digests: dict[str, str]) -> None:
    """Compare *digests* with the committed reference for *workload*;
    raises :class:`GateError` on any mismatch.  An empty *reference*
    (the self-test's tiny scale has none) checks nothing."""
    if not reference:
        return
    if reference.get("scale") != scale:
        raise GateError(f"reference is for scale {reference.get('scale')}, "
                        f"the run is at {scale}")
    expected = reference.get(workload, {})
    if expected != digests:
        changed = sorted(k for k in set(expected) | set(digests)
                         if expected.get(k) != digests.get(k))
        raise GateError(f"{workload}: digests differ from the committed "
                        f"reference for {changed}")
