"""The serve layer's name for the result store.

The store itself is :class:`repro.harness.store.ResultStore`.  This
binding keeps the ``ShardedResultStore`` name that ``perfbench/``
imports from here and from :mod:`repro.serve`, constructs, and patches
for its ledger spans (patching this name patches the one store class).
"""

from repro.harness.store import ResultStore

ShardedResultStore = ResultStore
