"""GBWT kernel: haplotype-aware index search (from vg giraffe).

Inputs (Table 3: "GBWT Query"): random haplotype subpaths of length
1–100, exactly the paper's generator.  The kernel is the ``find``
operation — a chain of last-first mappings through per-node records —
plus the successor enumeration giraffe's filter stage needs.
"""

from __future__ import annotations

import random

import numpy as np

from repro.data import derivation, gbwt_queries_range
from repro.data.streaming import ChunkedSeries
from repro.errors import KernelError
from repro.index.gbwt import ENDMARKER, GBWT
from repro.kernels.base import (
    SCALAR,
    VECTORIZED,
    Kernel,
    KernelResult,
    register,
)
from repro.uarch.events import MachineProbe, OpClass


def _chunks(items, size):
    """Yield *items* in lists of at most *size* (works for iterables)."""
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _gbwt_query_count(spec) -> int:
    return max(200, int(2000 * spec.scale))


@derivation("gbwt_queries")
def _derive_gbwt_queries(data, spec, start=0, stop=None):
    """The paper's query generator: random haplotype subpaths of length
    1-100, queries ``start..stop`` (default all).  Each query has its own
    RNG substream, so any range is a slice of the whole set."""
    if stop is None:
        stop = _gbwt_query_count(spec)
    return gbwt_queries_range(data.graph, start, stop, seed=spec.seed)


@derivation("gbwt_index")
def _derive_gbwt_index(data, spec):
    """The GBWT over the corpus graph's haplotype paths, built once per
    dataset: rebuilding it cost each pass about as much as the queries
    themselves.  Kernels share the one object and only read it."""
    return GBWT.from_graph(data.graph)


@register
class GBWTKernel(Kernel):
    """Run ``find`` over a batch of haplotype subpath queries."""

    name = "gbwt"
    parent_tool = "giraffe"
    input_type = "gbwt query"

    #: Modelled record size: the GBWT's run-length-compressed records
    #: are tens of bytes (Siren et al.).
    RECORD_BYTES = 48

    #: Batched-numpy wavefront walk by default; the scalar reference
    #: (the differential oracle) is selectable as a backend.
    SUPPORTED_BACKENDS = (SCALAR, VECTORIZED)

    #: Queries per lockstep wavefront in the vectorized backend (a
    #: throughput knob, independent of the streaming chunk size).
    CHUNK = 256

    def prepare(self) -> None:
        data = self.dataset()
        self.graph = data.graph
        self.gbwt = self.derived("gbwt_index")
        self.queries = ChunkedSeries(self.spec, "gbwt_queries",
                                     _gbwt_query_count(self.spec))
        if not self.queries:
            raise KernelError("no GBWT queries generated")
        # Record layout in haplotype-path order: consecutive nodes of a
        # haplotype sit in adjacent records, the locality property the
        # paper credits for GBWT *not* being memory bound.
        self.record_offset: dict[int, int] = {}
        slot = 0
        for name in data.graph.path_names():
            for node_id in data.graph.path(name).nodes:
                if node_id not in self.record_offset:
                    self.record_offset[node_id] = slot
                    slot += 1
        self._build_rank_index()

    def _build_rank_index(self) -> None:
        """Flatten the GBWT records into searchsorted-able arrays.

        ``rank(v, w, pos)`` and ``block_offset(w, v)`` become binary
        searches over composite integer keys, so a whole wavefront of
        query extensions runs as a handful of numpy calls.
        """
        records = self.gbwt._records
        self._nodes_sorted = np.asarray(sorted(records), dtype=np.int64)
        n = int(self._nodes_sorted.shape[0])
        self._n_dense = n
        dense = {int(v): d for d, v in enumerate(self._nodes_sorted)}
        # ENDMARKER successors map to dense id n.
        self._rec_len = np.empty(n, dtype=np.int64)
        max_len = 1
        visit_v: list[np.ndarray] = []
        visit_w: list[np.ndarray] = []
        visit_pos: list[np.ndarray] = []
        block_keys: list[int] = []
        block_vals: list[int] = []
        for d, real in enumerate(self._nodes_sorted):
            record = records[int(real)]
            length = len(record.successors)
            self._rec_len[d] = length
            max_len = max(max_len, length)
            succ = np.asarray(
                [n if s == ENDMARKER else dense[s] for s in record.successors],
                dtype=np.int64,
            )
            visit_v.append(np.full(length, d, dtype=np.int64))
            visit_w.append(succ)
            visit_pos.append(np.arange(length, dtype=np.int64))
            for pred, offset in record.block_offset.items():
                pred_dense = dense.get(pred)
                if pred_dense is not None:
                    block_keys.append(d * (n + 1) + pred_dense)
                    block_vals.append(offset)
        self._max_rec = max_len
        vw = np.concatenate(visit_v) * (n + 1) + np.concatenate(visit_w)
        keys = vw * (max_len + 1) + np.concatenate(visit_pos)
        self._rank_keys = np.sort(keys)
        self._pair_ids, pair_start = np.unique(
            self._rank_keys // (max_len + 1), return_index=True
        )
        self._pair_start = pair_start.astype(np.int64)
        border = np.argsort(np.asarray(block_keys, dtype=np.int64))
        self._block_keys = np.asarray(block_keys, dtype=np.int64)[border]
        self._block_vals = np.asarray(block_vals, dtype=np.int64)[border]

    def _rank_block(
        self, v: np.ndarray, w: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``records[v].rank(w, pos)`` (dense node ids)."""
        vw = v * (self._n_dense + 1) + w
        p = np.searchsorted(self._pair_ids, vw)
        p_clip = np.minimum(p, len(self._pair_ids) - 1)
        found = self._pair_ids[p_clip] == vw
        raw = np.searchsorted(self._rank_keys, vw * (self._max_rec + 1) + pos)
        return np.where(found, raw - self._pair_start[p_clip], 0)

    def _block_offset_block(
        self, w: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``records[w].block_offset.get(v)`` → (offset, found)."""
        key = w * (self._n_dense + 1) + v
        p = np.searchsorted(self._block_keys, key)
        p_clip = np.minimum(p, len(self._block_keys) - 1)
        found = self._block_keys[p_clip] == key
        return np.where(found, self._block_vals[p_clip], 0), found

    def _execute(self, probe: MachineProbe) -> KernelResult:
        if self.backend == VECTORIZED:
            return self._execute_batched(probe)
        return self._execute_scalar(probe)

    def _execute_batched(self, probe: MachineProbe) -> KernelResult:
        """Lockstep wavefront over query chunks.

        Events are computed step-major but *reassembled* query-major
        from padded per-chunk arrays, so the flushed stream is
        bit-identical to :meth:`_execute_scalar` — same addresses, same
        order, same branch outcomes.
        """
        matches = 0
        successor_total = 0
        extend_steps = 0
        record_base = 1 << 24
        record_bytes = self.RECORD_BYTES
        alu_total = 0
        n_queries = 0
        record_blocks: list[np.ndarray] = []
        rank_blocks: list[np.ndarray] = []
        changed_blocks: list[np.ndarray] = []
        multi_blocks: list[np.ndarray] = []
        emptied_blocks: list[np.ndarray] = []
        fanout: list[bool] = []
        n = self._n_dense
        # Record slots by dense id, read from ``record_offset`` on every
        # run: the one layout table both backends share.
        slot_of = np.asarray(
            [self.record_offset.get(int(v), 0) for v in self._nodes_sorted],
            dtype=np.int64,
        )
        for chunk in _chunks(self.queries, self.CHUNK):
            size = len(chunk)
            n_queries += size
            lengths = np.asarray([len(q) for q in chunk], dtype=np.int64)
            max_q = int(lengths.max())
            qn = np.zeros((size, max_q), dtype=np.int64)
            for i, query in enumerate(chunk):
                qn[i, : len(query)] = query
            pos = np.searchsorted(self._nodes_sorted, qn)
            pos_clip = np.minimum(pos, n - 1)
            dense = np.where(self._nodes_sorted[pos_clip] == qn, pos_clip, -1)

            cur = dense[:, 0]
            cur_valid = cur >= 0
            start = np.zeros(size, dtype=np.int64)
            end = np.where(cur_valid, self._rec_len[np.maximum(cur, 0)], 0)
            # Event staging: column 0 holds the full_state record load,
            # columns 1.. the per-step events; extraction is row-major.
            ev_record = np.zeros((size, max_q), dtype=np.int64)
            ev_rank = np.zeros((size, max_q), dtype=np.int64)
            ev_changed = np.zeros((size, max_q), dtype=bool)
            ev_multi = np.zeros((size, max_q), dtype=bool)
            ev_emptied = np.zeros((size, max_q), dtype=bool)
            steps_taken = np.zeros(size, dtype=np.int64)
            ev_record[:, 0] = record_base + slot_of[np.maximum(cur, 0)] * record_bytes
            active = (lengths > 1) & (end > start)
            for k in range(1, max_q):
                idx = np.flatnonzero(active)
                if idx.size == 0:
                    break
                v = cur[idx]
                w = dense[idx, k]
                slot = slot_of[w]
                rec_addr = record_base + slot * record_bytes
                ev_record[idx, k] = rec_addr
                ev_rank[idx, k] = rec_addr + (start[idx] % 4) * 8
                prev_size = end[idx] - start[idx]
                offset, found = self._block_offset_block(w, v)
                rank_s = self._rank_block(v, w, start[idx])
                rank_e = self._rank_block(v, w, end[idx])
                new_start = np.where(found, offset + rank_s, 0)
                new_end = np.where(found, offset + rank_e, 0)
                new_size = np.maximum(0, new_end - new_start)
                ev_changed[idx, k] = new_size != prev_size
                ev_multi[idx, k] = new_size > 1
                empt = new_size == 0
                ev_emptied[idx, k] = empt
                steps_taken[idx] = k
                cur[idx] = w
                start[idx] = new_start
                end[idx] = new_end
                active[idx] = ~empt & (k + 1 < lengths[idx])

            extend_steps += int(steps_taken.sum())
            alu_total += 12 * int(steps_taken.sum())
            # Row-major masked extraction = query-major event order.
            cols = np.arange(max_q, dtype=np.int64)[None, :]
            step_mask = (cols >= 1) & (cols <= steps_taken[:, None])
            rec_mask = step_mask.copy()
            rec_mask[:, 0] = True
            record_blocks.append(ev_record[rec_mask])
            rank_blocks.append(ev_rank[step_mask])
            changed_blocks.append(ev_changed[step_mask])
            multi_blocks.append(ev_multi[step_mask])
            emptied_blocks.append(ev_emptied[step_mask])
            # Per-query epilogue (final sizes, successor fan-out).
            final_sizes = np.maximum(0, end - start)
            matches += int(final_sizes.sum())
            alu_total += int(2 * np.maximum(1, final_sizes).sum())
            for i in range(size):
                if final_sizes[i] > 0:
                    real = int(self._nodes_sorted[cur[i]])
                    record = self.gbwt._records[real]
                    succ: set[int] = set()
                    for index in range(int(start[i]), int(end[i])):
                        succ.add(record.successors[index])
                    successor_total += len(succ)
                    fanout.append(len(succ) > 1)
                else:
                    fanout.append(False)
        probe.load_block(np.concatenate(record_blocks), 16)
        probe.load_block(np.concatenate(rank_blocks), 8)
        probe.alu_bulk(OpClass.SCALAR_ALU, alu_total)
        probe.branch_trace(90, np.concatenate(changed_blocks))
        probe.branch_trace(93, np.concatenate(multi_blocks))
        probe.branch_trace(94, np.concatenate(emptied_blocks))
        probe.branch_trace(91, fanout)
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=n_queries,
            work={
                "matches": float(matches),
                "extend_steps": float(extend_steps),
                "mean_successors": successor_total / n_queries,
            },
        )

    def _execute_scalar(self, probe: MachineProbe) -> KernelResult:
        matches = 0
        successor_total = 0
        extend_steps = 0
        record_base = 1 << 24
        record_bytes = self.RECORD_BYTES
        # The record walks' loads and data-dependent outcomes buffer per
        # batch of queries and flush as blocks (the probe never steers
        # the search, so batching is event-stream equivalent).
        record_loads: list[int] = []
        rank_loads: list[int] = []
        alu_total = 0
        size_changed: list[bool] = []
        multi_match: list[bool] = []
        emptied: list[bool] = []
        fanout: list[bool] = []
        for query in self.queries:
            state = self.gbwt.full_state(query[0])
            record_loads.append(
                record_base + self.record_offset[query[0]] * record_bytes
            )
            for node_id in query[1:]:
                # Record lookup: adjacent haplotype nodes sit in adjacent
                # records, so these loads stay local.
                slot = self.record_offset[node_id]
                record_loads.append(record_base + slot * record_bytes)
                rank_loads.append(
                    record_base + slot * record_bytes + (state.start % 4) * 8
                )
                previous_size = state.size
                state = self.gbwt.extend(state, node_id)
                extend_steps += 1
                # Data-dependent control flow: rank-scan length, block
                # dispatch, and range-collapse checks all depend on the
                # search state's contents (the front-end / bad-speculation
                # source in Figure 6).
                alu_total += 12
                size_changed.append(state.size != previous_size)
                multi_match.append(state.size > 1)
                if state.is_empty:
                    emptied.append(True)
                    break
                emptied.append(False)
            matches += state.size
            successors = self.gbwt.successors(state)
            successor_total += len(successors)
            alu_total += 2 * max(1, state.size)
            fanout.append(len(successors) > 1)
        probe.load_block(record_loads, 16)
        probe.load_block(rank_loads, 8)
        probe.alu_bulk(OpClass.SCALAR_ALU, alu_total)
        probe.branch_trace(90, size_changed)
        probe.branch_trace(93, multi_match)
        probe.branch_trace(94, emptied)
        probe.branch_trace(91, fanout)
        return KernelResult(
            kernel=self.name,
            wall_seconds=0.0,
            inputs_processed=len(self.queries),
            work={
                "matches": float(matches),
                "extend_steps": float(extend_steps),
                "mean_successors": successor_total / len(self.queries),
            },
        )

    def validate(self) -> None:
        """find() must agree with a naive haplotype scan on samples."""
        self.ensure_prepared()
        rng = random.Random(self.seed)
        paths = [self.graph.path(name).nodes for name in self.graph.path_names()]

        def naive_count(query: tuple[int, ...]) -> int:
            count = 0
            for path in paths:
                for index in range(len(path) - len(query) + 1):
                    if path[index : index + len(query)] == query:
                        count += 1
            return count

        for query in rng.sample(self.queries, min(20, len(self.queries))):
            got = self.gbwt.find(query).size
            want = naive_count(query)
            if got != want:
                raise KernelError(f"GBWT mismatch for {query}: {got} != {want}")
