"""PGSGD: path-guided stochastic gradient descent graph layout.

odgi's layout step (Heumos et al. 2024) poses 2D graph drawing as an
optimization problem: sample two anchors from a path, compare their
Euclidean distance in the current layout with their nucleotide distance
along the path, and nudge both toward agreement (Figure 4g).  Millions of
updates run lock-free across threads (Hogwild!); rare races are corrected
by later updates.

Computational signature (Section 5.2): uniform-random reads/writes into a
layout array that fits in no cache level, plus divisions and square roots
(the Pythagorean step) on the critical path — memory- and core-bound with
the suite's lowest IPC.

Every node contributes two anchors (its ends).  The layout array is laid
out like odgi's (x, y interleaved per anchor), and the probe sees the
random accesses at their true addresses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.backends import SCALAR, VECTORIZED, check_backend
from repro.errors import SimulationError
from repro.graph.model import SequenceGraph
from repro.layout.path_index import PathIndex, PathStep
from repro.uarch.events import NULL_PROBE, AddressSpace, MachineProbe, OpClass


@dataclass(frozen=True)
class PGSGDParams:
    """Annealing schedule and sampling parameters (odgi defaults scaled).

    ``eta_max=None`` (the default, like odgi) sets the initial learning
    rate to the squared maximum path distance, so even the longest-range
    terms move with step factor ~1 in the first iteration.
    """

    iterations: int = 30          # outer iterations (paper: 30, w/ barriers)
    updates_per_iteration: int = 2000
    eta_max: float | None = None
    eta_min: float = 0.1
    zipf_theta: float = 0.9
    seed: int = 42
    #: 'linear' seeds from the graph's linearized order (odgi's default);
    #: 'random' scatters anchors uniformly (the twisted Layout-1 case).
    initialization: str = "linear"
    #: Memory-model spread: the paper's layout array is ~1.7 GB and fits
    #: in no cache; a downscaled graph would fit in L1.  Each anchor's
    #: probe address is replicated over this many virtual slots so the
    #: simulated footprint matches a full-size pangenome (1 = off).
    virtual_anchor_scale: int = 1

    def schedule(self, eta_max: float | None = None) -> list[float]:
        """Exponentially decaying learning rate across iterations."""
        if self.iterations < 1:
            raise SimulationError("need at least one iteration")
        top = self.eta_max if self.eta_max is not None else eta_max
        if top is None or top <= 0:
            raise SimulationError("schedule needs a positive eta_max")
        if self.iterations == 1:
            return [top]
        decay = math.log(self.eta_min / top) / (self.iterations - 1)
        return [top * math.exp(decay * t) for t in range(self.iterations)]


@dataclass
class PGSGDResult:
    """Final layout and work counters."""

    positions: list[tuple[float, float]]  # one (x, y) per anchor
    updates: int
    stress_history: list[float]
    path_index_work: int

    @property
    def final_stress(self) -> float:
        return self.stress_history[-1] if self.stress_history else float("nan")


def _conflict_bounds(a: np.ndarray, b: np.ndarray) -> list[int]:
    """Per-term earliest endpoint index whose anchor the term reuses.

    Over the interleaved endpoint sequence ``a0 b0 a1 b1 ...``, entry
    *t* is the largest index of a previous occurrence of either of term
    *t*'s anchors (−1 if both are fresh).  A run starting at term *s*
    can include term *t* iff ``bounds[t] < 2 s`` — no anchor then
    repeats inside the run, so snapshot reads equal sequential reads.
    """
    total = int(a.shape[0])
    seq = np.empty(2 * total, dtype=np.int64)
    seq[0::2] = a
    seq[1::2] = b
    order = np.argsort(seq, kind="stable")
    sorted_seq = seq[order]
    prev = np.full(2 * total, -1, dtype=np.int64)
    dup = sorted_seq[1:] == sorted_seq[:-1]
    prev[order[1:][dup]] = order[:-1][dup]
    return np.maximum(prev[0::2], prev[1::2]).tolist()


class PGSGDLayout:
    """CPU PGSGD with batched Hogwild!-style updates.

    Updates run as batched conflict-free runs (arXiv 2409.00876's
    batched-update reformulation): consecutive terms touching disjoint
    anchors read one layout snapshot and scatter their deltas in a
    single vector step — bit-identical to the sequential walk, with run
    length growing as anchor collisions get rarer on larger graphs.
    Sampling draws the scalar :meth:`PathIndex.sample_step_pair` stream
    term for term, so the term sequence — and with it every coordinate
    and probe event — is independent of the batching.

    ``backend="scalar"`` runs the same sampled terms through the
    sequential per-term scalar loop — the differential-test reference.
    """

    BYTES_PER_ANCHOR = 16  # two float64 coordinates

    #: Cap on a conflict-free run, bounding the snapshot scan width.
    MINI_BATCH = 256

    #: Runs shorter than this apply through the scalar loop — numpy
    #: dispatch costs more than it saves on a handful of terms.
    VECTOR_MIN_RUN = 16

    def __init__(
        self,
        graph: SequenceGraph,
        params: PGSGDParams | None = None,
        probe: MachineProbe = NULL_PROBE,
        backend: str = VECTORIZED,
    ) -> None:
        check_backend(backend, (SCALAR, VECTORIZED), "PGSGDLayout",
                      SimulationError)
        self.graph = graph
        self.params = params or PGSGDParams()
        self.probe = probe
        self.backend = backend
        self.vectorize = backend == VECTORIZED
        self.index = PathIndex(graph)
        self._node_anchor: dict[int, int] = {}
        for anchor_index, node_id in enumerate(sorted(graph.node_ids())):
            self._node_anchor[node_id] = 2 * anchor_index
        self.n_anchors = 2 * graph.node_count
        # Per path, for :meth:`_sample_terms`: each step's start anchor,
        # start and end positions, the step count with its bit length,
        # and the Zipf jump's scale (step count - 1) ** (1 - theta) and
        # exponent 1 / (1 - theta) -- unused, and zero, where every jump
        # is 1.
        theta = self.params.zipf_theta
        self._path_tables: list[
            tuple[list[int], list[int], list[int], int, int, float, float]
        ] = []
        for path_index in range(self.index.path_count):
            steps = self.index.steps_of(path_index)
            n = len(steps)
            zipf = n > 2
            self._path_tables.append((
                [self._node_anchor[step.node_id] for step in steps],
                [step.position for step in steps],
                [step.position + len(graph.node(step.node_id)) for step in steps],
                n,
                n.bit_length(),
                (n - 1) ** (1.0 - theta) if zipf else 0.0,
                1.0 / (1.0 - theta) if zipf else 0.0,
            ))
        space = AddressSpace()
        self._virtual_scale = max(1, self.params.virtual_anchor_scale)
        self._virtual_slots = self.n_anchors * self._virtual_scale
        self._layout_base = space.alloc(self._virtual_slots * self.BYTES_PER_ANCHOR)
        self._visit_count: dict[int, int] = {}
        self._rng = random.Random(self.params.seed)
        positions: list[list[float]] = []
        if self.params.initialization == "random":
            # Twisted start: anchors scattered uniformly in a box sized
            # to the total sequence length.
            box = float(max(1, graph.total_sequence_length))
            for _node_id in sorted(graph.node_ids()):
                for _ in range(2):
                    positions.append(
                        [self._rng.uniform(0, box), self._rng.uniform(0, box)]
                    )
        elif self.params.initialization == "linear":
            # Initial layout: nodes along a line by id with jitter (odgi
            # seeds from the graph's linearized order).
            position = 0.0
            for node_id in sorted(graph.node_ids()):
                jitter = self._rng.uniform(-1.0, 1.0)
                length = len(graph.node(node_id))
                positions.append([position, jitter])
                positions.append([position + length, jitter])
                position += length
        else:
            raise SimulationError(
                f"unknown initialization {self.params.initialization!r}"
            )
        self.positions = np.asarray(positions, dtype=np.float64)
        # Per-anchor visit counters for the vectorized slot rotation
        # (the scalar :meth:`_anchor_address` keeps its own dict).
        self._visit_np = np.zeros(self.n_anchors, dtype=np.int64)
        # The stress sample: a fixed draw of node-start anchor pairs, so
        # stress is comparable across iterations.  Drawn once per layout.
        stress_rng = random.Random(1234)
        stress_pairs: list[tuple[int, int]] = []
        self._stress_targets: list[float] = []
        for _ in range(200):
            step_a, step_b = self.index.sample_step_pair(stress_rng)
            pair = (self.anchor_of(step_a, False), self.anchor_of(step_b, False))
            if pair[0] != pair[1]:
                stress_pairs.append(pair)
                self._stress_targets.append(float(abs(
                    self.anchor_position(step_b, False)
                    - self.anchor_position(step_a, False)
                )) or 1.0)
        self._stress_pairs = np.asarray(stress_pairs, dtype=np.int64).reshape(-1, 2)

    def anchor_of(self, step: PathStep, end: bool) -> int:
        """Anchor index for a path step (False = node start, True = end)."""
        return self._node_anchor[step.node_id] + (1 if end else 0)

    def run(self) -> PGSGDResult:
        """Run the full annealing schedule; returns the final layout."""
        params = self.params
        max_distance = max(
            self.index.path_length(i) for i in range(self.index.path_count)
        )
        schedule = params.schedule(eta_max=float(max_distance) ** 2)
        stress_history = [self._sample_stress()]
        updates = 0
        probe = self.probe
        for eta in schedule:
            # One iteration's updates flush as blocks at its barrier: the
            # uniform-random layout reads/writes batch into address
            # arrays, the update math runs as conflict-free vector runs.
            a, b, target = self._sample_terms(params.updates_per_iteration)
            updates += params.updates_per_iteration
            moved = self._apply_terms(a, b, target, eta)
            n = int(a.shape[0])
            interleaved = np.empty(2 * n, dtype=np.int64)
            interleaved[0::2] = a
            interleaved[1::2] = b
            probe.alu_bulk(OpClass.SCALAR_ALU, 8 * n)
            probe.alu_bulk(OpClass.VECTOR_FP, 11 * n)
            probe.alu_bulk(OpClass.SCALAR_MUL_DIV, 3 * n, dependent_count=3 * n)
            probe.load_block(self._layout_base + (interleaved % 64) * 8, 8)
            # The two random layout reads per term: the memory bottleneck.
            addresses = self._anchor_addresses(interleaved)
            probe.load_block(addresses, 16)
            probe.store_block(addresses, 16)
            probe.branch_trace(70, moved)
            # Synchronization barrier between iterations (Section 5.1).
            stress_history.append(self._sample_stress())
        return PGSGDResult(
            positions=[(float(p[0]), float(p[1])) for p in self.positions],
            updates=updates,
            stress_history=stress_history,
            path_index_work=self.index.build_work,
        )

    # ------------------------------------------------------------------

    def anchor_position(self, step: PathStep, end: bool) -> int:
        """Nucleotide path position of a step's chosen node end."""
        if end:
            return step.position + len(self.graph.node(step.node_id))
        return step.position

    def _sample_terms(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample *count* terms; returns (anchor_a, anchor_b, target)
        with same-anchor terms dropped.

        Draws exactly what a loop of :meth:`PathIndex.sample_step_pair`
        plus two ``rng.random()`` node ends draws, term for term, on the
        layout's own RNG stream, so batching the update step leaves the
        trajectory untouched.  The scalar definitions (the pair sampler,
        its Zipf jump, :meth:`anchor_of` and :meth:`anchor_position`)
        are inlined over per-path tables, and ``randrange(n)`` runs as
        CPython's own rejection loop over ``getrandbits(n.bit_length())``,
        which consumes the generator identically.
        """
        getrandbits = self._rng.getrandbits
        random_ = self._rng.random
        paths = self._path_tables
        n_paths = len(paths)
        path_bits = n_paths.bit_length()
        anchors_a: list[int] = []
        anchors_b: list[int] = []
        targets: list[float] = []
        for _ in range(count):
            path = getrandbits(path_bits)
            while path >= n_paths:
                path = getrandbits(path_bits)
            anchors, starts, ends, n, bits, zipf_scale, zipf_exponent = paths[path]
            if n == 1:
                first = second = 0
            else:
                first = getrandbits(bits)
                while first >= n:
                    first = getrandbits(bits)
                max_jump = n - 1
                if max_jump <= 1:
                    jump = 1
                else:
                    jump = int((zipf_scale * random_() + 1.0) ** zipf_exponent)
                    if jump > max_jump:
                        jump = max_jump
                    elif jump < 1:
                        jump = 1
                if random_() < 0.5:
                    second = first - jump
                    if second < 0:
                        second = 0
                else:
                    second = first + jump
                    if second > max_jump:
                        second = max_jump
                if second == first:
                    second = (first + 1) % n
            # Random ends of the two visited nodes; the target distance
            # is measured between the chosen ends (odgi's term
            # definition).
            end_a = random_() < 0.5
            end_b = random_() < 0.5
            anchor_a = anchors[first] + end_a
            anchor_b = anchors[second] + end_b
            if anchor_a == anchor_b:
                continue
            target = float(abs((ends if end_b else starts)[second]
                               - (ends if end_a else starts)[first]))
            anchors_a.append(anchor_a)
            anchors_b.append(anchor_b)
            targets.append(target or 1.0)
        a = np.asarray(anchors_a, dtype=np.int64)
        b = np.asarray(anchors_b, dtype=np.int64)
        t = np.asarray(targets, dtype=np.float64)
        return a, b, t

    def _apply_terms(
        self, a: np.ndarray, b: np.ndarray, target: np.ndarray, eta: float
    ) -> np.ndarray:
        """Apply sampled terms; returns the per-term moved flags.

        The vectorized path processes conflict-free runs of terms in one
        shot: a run ends just before the first term whose anchor already
        appears earlier in it, so the run-start snapshot reads equal the
        sequential reads exactly and the result is bit-identical to the
        scalar per-term loop.  Run length adapts to the graph: on a
        full-size pangenome conflicts are rare and runs reach the
        :data:`MINI_BATCH` cap, mirroring how Hogwild! races vanish at
        scale.
        """
        moved = np.empty(a.shape[0], dtype=bool)
        positions = self.positions
        if not self.vectorize:
            # Scalar reference: strictly sequential per-term updates.
            for t in range(int(a.shape[0])):
                ax, ay = positions[a[t]]
                bx, by = positions[b[t]]
                dx = ax - bx
                dy = ay - by
                distance = math.sqrt(dx * dx + dy * dy)
                if distance < 1e-9:
                    dx, dy = 1.0, 0.0
                    distance = 1.0
                mu = min(1.0, eta / (target[t] * target[t]))
                magnitude = mu * (distance - target[t]) / 2.0
                ux = dx / distance * magnitude
                uy = dy / distance * magnitude
                positions[a[t], 0] -= ux
                positions[a[t], 1] -= uy
                positions[b[t], 0] += ux
                positions[b[t], 1] += uy
                moved[t] = magnitude > 0
            return moved
        total = int(a.shape[0])
        if total == 0:
            return moved
        bounds = _conflict_bounds(a, b)
        a_list = a.tolist()
        b_list = b.tolist()
        t_list = target.tolist()
        flat = positions.reshape(-1)
        start = 0
        while start < total:
            # Extend the run until a term reuses one of its anchors.  A
            # term never conflicts with itself (endpoints differ), so
            # every run has at least one term.
            floor = 2 * start
            end = start
            limit = min(total, start + self.MINI_BATCH)
            while end < limit and bounds[end] < floor:
                end += 1
            if end - start < self.VECTOR_MIN_RUN:
                sqrt = math.sqrt
                for t in range(start, end):
                    ia = 2 * a_list[t]
                    ib = 2 * b_list[t]
                    ax = flat[ia]
                    ay = flat[ia + 1]
                    bx = flat[ib]
                    by = flat[ib + 1]
                    dx = ax - bx
                    dy = ay - by
                    distance = sqrt(dx * dx + dy * dy)
                    if distance < 1e-9:
                        dx, dy = 1.0, 0.0
                        distance = 1.0
                    tt = t_list[t]
                    mu = min(1.0, eta / (tt * tt))
                    magnitude = mu * (distance - tt) / 2.0
                    ux = dx / distance * magnitude
                    uy = dy / distance * magnitude
                    flat[ia] = ax - ux
                    flat[ia + 1] = ay - uy
                    flat[ib] = bx + ux
                    flat[ib + 1] = by + uy
                    moved[t] = magnitude > 0
                start = end
                continue
            run = slice(start, end)
            aa = a[run]
            bb = b[run]
            tt = target[run]
            ax = positions[aa, 0]
            ay = positions[aa, 1]
            bx = positions[bb, 0]
            by = positions[bb, 1]
            dx = ax - bx
            dy = ay - by
            distance = np.sqrt(dx * dx + dy * dy)
            degenerate = distance < 1e-9
            dx = np.where(degenerate, 1.0, dx)
            dy = np.where(degenerate, 0.0, dy)
            distance = np.where(degenerate, 1.0, distance)
            mu = np.minimum(1.0, eta / (tt * tt))  # w_ij = 1/d^2 weighting
            magnitude = mu * (distance - tt) / 2.0
            ux = dx / distance * magnitude
            uy = dy / distance * magnitude
            # No anchor repeats within the run, so plain fancy-index
            # updates are exact scatters.
            positions[aa, 0] = ax - ux
            positions[aa, 1] = ay - uy
            positions[bb, 0] = bx + ux
            positions[bb, 1] = by + uy
            moved[run] = magnitude > 0
            start = end
        return moved

    def _anchor_addresses(self, anchors: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_anchor_address` over a visit sequence.

        Per-anchor visit numbers continue from previous iterations; ties
        within the sequence rank in sequence order (stable grouping), so
        the rotation matches a call-by-call scalar walk.
        """
        if self._virtual_scale == 1:
            return self._layout_base + anchors * self.BYTES_PER_ANCHOR
        order = np.argsort(anchors, kind="stable")
        sorted_anchors = anchors[order]
        new_group = np.empty(sorted_anchors.shape[0], dtype=bool)
        if sorted_anchors.shape[0]:
            new_group[0] = True
            new_group[1:] = sorted_anchors[1:] != sorted_anchors[:-1]
        group_start = np.flatnonzero(new_group)
        group_id = np.cumsum(new_group) - 1
        within = np.arange(sorted_anchors.shape[0], dtype=np.int64)
        within -= group_start[group_id]
        visits = np.empty_like(within)
        visits[order] = within
        visits += self._visit_np[anchors]
        np.add.at(self._visit_np, anchors, 1)
        slot = anchors * self._virtual_scale + (
            visits * 2654435761 + anchors
        ) % self._virtual_scale
        return self._layout_base + slot * self.BYTES_PER_ANCHOR

    def _anchor_address(self, anchor: int) -> int:
        """Probe address of an anchor's coordinates.

        With ``virtual_anchor_scale > 1``, successive samples of the same
        anchor rotate through distinct virtual slots: on a full-size
        pangenome two samples virtually never touch the same cache line,
        and this reproduces that cold-access behaviour on a small graph.
        """
        if self._virtual_scale == 1:
            slot = anchor
        else:
            visit = self._visit_count.get(anchor, 0)
            self._visit_count[anchor] = visit + 1
            slot = (
                anchor * self._virtual_scale
                + (visit * 2654435761 + anchor) % self._virtual_scale
            )
        return self._layout_base + slot * self.BYTES_PER_ANCHOR

    def _sample_stress(self) -> float:
        """Normalized stress over the fixed sample of anchor pairs, summed
        in draw order."""
        targets = self._stress_targets
        if not targets:
            return 0.0
        ends = self.positions[self._stress_pairs]
        deltas = (ends[:, 0] - ends[:, 1]).tolist()
        total = 0.0
        for (dx, dy), target in zip(deltas, targets):
            total += ((math.hypot(dx, dy) - target) / target) ** 2
        return total / len(targets)


def pgsgd_layout(
    graph: SequenceGraph,
    params: PGSGDParams | None = None,
    probe: MachineProbe = NULL_PROBE,
) -> PGSGDResult:
    """One-shot CPU PGSGD layout."""
    return PGSGDLayout(graph, params=params, probe=probe).run()
