"""Execution profiles: the per-step work a distributed join performs.

The paper's Tables 2-4 report wall-clock seconds per algorithm step on a
real 4-machine cluster.  Our substrate is a simulator, so joins instead
record *work*: for every named step, how many bytes each node processed
(CPU steps) or how many bytes crossed the network (network steps).  A
:class:`~repro.timing.hardware.HardwareModel` then converts work into
seconds with calibrated rates.

Steps are recorded in execution order and keep the paper's step names
("Hash partition R tuples", "Generate schedules and partition by node",
...), so the Table 3/4 benches print rows aligned with the paper.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

__all__ = ["Step", "ExecutionProfile", "CPU", "NET", "LOCAL"]

#: Step kinds.  ``LOCAL`` marks node-local memory copies, which the paper
#: separates from real network transfers ("Local copy tuples").
CPU = "cpu"
NET = "net"
LOCAL = "local"


@dataclass
class Step:
    """One named step of a join execution.

    Attributes
    ----------
    name:
        Human-readable step name (matches the paper's step tables).
    kind:
        ``CPU`` (per-node processing), ``NET`` (network transfer), or
        ``LOCAL`` (node-local copy).
    rate_class:
        Which calibrated hardware rate applies ("partition", "sort",
        "merge", "aggregate", "schedule", "copy", "transfer").
    per_node_bytes:
        Work per node.  CPU time is driven by the most loaded node
        (nodes run in parallel); network time by the total volume.
    """

    name: str
    kind: str
    rate_class: str
    per_node_bytes: np.ndarray

    @property
    def total_bytes(self) -> float:
        """Work summed over all nodes."""
        return float(self.per_node_bytes.sum())

    @property
    def max_node_bytes(self) -> float:
        """Work of the most loaded node."""
        return float(self.per_node_bytes.max()) if len(self.per_node_bytes) else 0.0


class ExecutionProfile:
    """Ordered collection of the steps one join execution performed.

    The profile is phase-aware for the parallel engine: while a phase is
    open (:meth:`begin_phase`), a worker thread bound to a lane profile
    (:meth:`bind_lane`) records into that private lane instead of the
    shared step list, and :meth:`end_phase` merges lanes back in task
    order.  Step lists and per-node sums are therefore bit-identical for
    every worker count and thread interleaving.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.steps: list[Step] = []
        #: Wall-clock phase breakdowns (one dict per executed phase
        #: group): dispatch/kernel/barrier-wait/commit seconds plus
        #: task/stage/worker counts.  Unlike ``steps``, these are real
        #: timings — non-deterministic by nature — so they are excluded
        #: from lane merging, golden comparisons, and :meth:`merge`.
        self.phase_timings: list[dict] = []
        #: Per-node network load summary recorded from the traffic
        #: ledger when the join finishes (``max_received_bytes``,
        #: ``max_sent_bytes``, ``mean_received_bytes``).  Like
        #: ``phase_timings`` it is a run-level annotation, excluded from
        #: lane merging and :meth:`merge`.
        self.network_load: dict[str, float] = {}
        self._phase_lanes: list["ExecutionProfile"] | None = None
        self._tls = threading.local()
        #: (name, kind) -> step, for O(1) accumulation.
        self._index: dict[tuple[str, str], Step] = {}

    def record_network_load(self, ledger) -> None:
        """Snapshot the ledger's per-node load extremes into the profile.

        Called once per join, right before the cluster's ledger is
        detached from the run; keeps the skew metrics available from
        the profile after the ledger moves on.
        """
        received = ledger.received_by_node
        self.network_load = {
            "max_received_bytes": ledger.max_received_bytes,
            "max_sent_bytes": ledger.max_sent_bytes,
            "mean_received_bytes": (
                float(sum(received.values()) / self.num_nodes)
                if self.num_nodes
                else 0.0
            ),
        }

    # -- phases and lanes ------------------------------------------------

    def begin_phase(self, num_lanes: int) -> list["ExecutionProfile"]:
        """Open a phase with one private lane profile per task."""
        if self._phase_lanes is not None:
            raise ValidationError("a profile phase is already open (missing barrier?)")
        self._phase_lanes = [ExecutionProfile(self.num_nodes) for _ in range(num_lanes)]
        return self._phase_lanes

    @contextmanager
    def bind_lane(self, lane: "ExecutionProfile"):
        """Route this thread's recordings into ``lane`` for the duration."""
        previous = getattr(self._tls, "lane", None)
        self._tls.lane = lane
        try:
            yield lane
        finally:
            self._tls.lane = previous

    def end_phase(self) -> None:
        """Barrier: merge all lane profiles back, in task order."""
        lanes = self._phase_lanes
        if lanes is None:
            raise ValidationError("no profile phase is open")
        self._phase_lanes = None
        for lane in lanes:
            self.merge(lane)

    def abort_phase(self) -> None:
        """Discard all lane profiles (error path)."""
        self._phase_lanes = None

    def merge(self, other: "ExecutionProfile") -> "ExecutionProfile":
        """Accumulate another profile's steps into this one, in step order."""
        for step in other.steps:
            self._accumulate(step.name, step.kind, step.rate_class, step.per_node_bytes)
        return self

    # -- recording -------------------------------------------------------
    #
    # Every recorder validates its input first (node indices in range,
    # work finite and non-negative; vectorized for row forms) and raises
    # ValidationError, so a bad value never reaches a step — and through
    # it the hardware model's seconds.

    def _step(self, name: str, kind: str, rate_class: str) -> Step:
        """The step ``(name, kind)`` of the bound lane (or this profile).

        Steps are created on first use, so ``steps`` keeps first-record
        order; later records of the same name and kind accumulate into
        it, letting loops over nodes record incrementally.
        """
        lane: "ExecutionProfile | None" = getattr(self._tls, "lane", None)
        target = self if lane is None else lane
        step = target._index.get((name, kind))
        if step is None:
            step = Step(name, kind, rate_class, np.zeros(target.num_nodes))
            target.steps.append(step)
            target._index[(name, kind)] = step
        return step

    def _accumulate(self, name: str, kind: str, rate_class: str, per_node) -> Step:
        per_node = np.asarray(per_node, dtype=np.float64)
        if per_node.shape != (self.num_nodes,):
            raise ValidationError(
                f"step {name!r}: expected {self.num_nodes} per-node values, "
                f"got shape {per_node.shape}"
            )
        step = self._step(name, kind, rate_class)
        step.per_node_bytes += per_node
        return step

    def _check_at(self, name: str, node, nbytes) -> None:
        """Validate one node's work value (scalar form of the row checks)."""
        if not 0 <= node < self.num_nodes:
            raise ValidationError(
                f"node index {node} out of range for {self.num_nodes}-node profile"
            )
        if not 0 <= nbytes < math.inf:
            raise ValidationError(
                f"step {name!r}: work must be finite and non-negative, got {nbytes}"
            )

    def _record_at(self, name: str, kind: str, rate_class: str, node, nbytes) -> Step:
        """Record ``nbytes`` of work on one node."""
        self._check_at(name, node, nbytes)
        step = self._step(name, kind, rate_class)
        step.per_node_bytes[node] += nbytes
        return step

    def _nodes(self, nodes) -> np.ndarray:
        """Node indices as an int64 vector, range-checked."""
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        # Viewed unsigned, negative indices wrap above any node count:
        # one reduction checks both bounds.
        if len(nodes) and np.maximum.reduce(nodes.view(np.uint64)) >= self.num_nodes:
            bad = nodes[(nodes < 0) | (nodes >= self.num_nodes)][0]
            raise ValidationError(
                f"node index {bad} out of range for {self.num_nodes}-node profile"
            )
        return nodes

    @staticmethod
    def _work(name: str, nbytes) -> np.ndarray:
        """Work values as a float64 array; NaN, infinite and negative refused.

        NaN propagates through both reductions, so two reductions cover
        all three cases.
        """
        nbytes = np.asarray(nbytes, dtype=np.float64)
        if nbytes.size and not (
            np.minimum.reduce(nbytes, axis=None) >= 0
            and np.maximum.reduce(nbytes, axis=None) < math.inf
        ):
            bad = nbytes[~((nbytes >= 0) & (nbytes < math.inf))].reshape(-1)[0]
            raise ValidationError(
                f"step {name!r}: work must be finite and non-negative, got {bad}"
            )
        return nbytes

    def add_cpu(self, name: str, rate_class: str, per_node_bytes) -> Step:
        """Record per-node CPU work for a named step."""
        return self._accumulate(name, CPU, rate_class, self._work(name, per_node_bytes))

    def add_cpu_at(self, name: str, rate_class: str, node: int, nbytes: float) -> Step:
        """Record CPU work for one node of a named step."""
        return self._record_at(name, CPU, rate_class, node, nbytes)

    def add_cpu_steps(self, node: int, steps) -> None:
        """Record one node's CPU work over several named steps, in order.

        ``steps`` is a sequence of ``(name, rate_class, nbytes)``; the
        call equals one :meth:`add_cpu_at` per entry, so a task records
        its whole per-node step sequence at once.  Every entry is
        validated before any is recorded.
        """
        for name, _rate_class, nbytes in steps:
            self._check_at(name, node, nbytes)
        for name, rate_class, nbytes in steps:
            self._step(name, CPU, rate_class).per_node_bytes[node] += nbytes

    def add_cpu_nodes(self, name: str, rate_class: str, nodes, nbytes) -> Step | None:
        """Record CPU work of many (node, bytes) entries in one call.

        ``nodes`` and ``nbytes`` are parallel (a node may repeat); the
        step is created only when there is at least one entry.
        """
        nbytes = self._work(name, nbytes).reshape(-1)
        nodes = self._nodes(nodes)
        if len(nodes) != len(nbytes):
            raise ValidationError(
                f"step {name!r}: {len(nodes)} nodes for {len(nbytes)} byte counts"
            )
        if len(nodes) == 0:
            return None
        per_node = np.bincount(nodes, weights=nbytes, minlength=self.num_nodes)
        return self._accumulate(name, CPU, rate_class, per_node)

    def add_net(self, name: str, per_node_sent_bytes) -> Step:
        """Record a network transfer step (bytes sent per node)."""
        return self._accumulate(name, NET, "transfer", self._work(name, per_node_sent_bytes))

    def add_net_at(self, name: str, node: int, nbytes: float) -> Step:
        """Record bytes one node sent during a named transfer step."""
        return self._record_at(name, NET, "transfer", node, nbytes)

    def add_net_row(
        self,
        transfer_step: str,
        local_step: str | None,
        src,
        dsts,
        nbytes,
    ) -> None:
        """Attribute one row of sends: remote entries are transfers, self-sends copies.

        Entry ``i`` moved ``nbytes[i]`` bytes from ``src`` to
        ``dsts[i]``; ``src`` is one node or an array parallel to
        ``dsts``.  Remote entries accumulate on their sender under the
        network step ``transfer_step``; entries with ``src == dst`` are
        node-local copies under the ``LOCAL`` step ``local_step`` (the
        paper separates the two in Tables 3-4), or are not recorded
        when ``local_step`` is ``None``.  A new step is created in the
        order a per-message loop would first reach it: the kind of the
        row's first entry first.
        """
        nbytes = self._work(transfer_step, nbytes).reshape(-1)
        dsts = self._nodes(dsts)
        if len(dsts) != len(nbytes):
            raise ValidationError(
                f"step {transfer_step!r}: {len(dsts)} destinations for "
                f"{len(nbytes)} byte counts"
            )
        if len(dsts) == 0:
            return
        one_src = isinstance(src, (int, np.integer))
        if one_src:
            self._check_at(transfer_step, src, 0.0)
        else:
            src = self._nodes(src)
            if len(src) != len(dsts):
                raise ValidationError(
                    f"step {transfer_step!r}: {len(src)} senders for "
                    f"{len(dsts)} destinations"
                )
        local = dsts == src
        num_local = int(np.count_nonzero(local))
        parts = []
        if num_local < len(dsts):
            parts.append((transfer_step, NET, "transfer", ~local))
        if local_step is not None and num_local:
            parts.insert(0 if local[0] else len(parts), (local_step, LOCAL, "copy", local))
        mixed = 0 < num_local < len(dsts)
        for name, kind, rate_class, mask in parts:
            values = nbytes[mask] if mixed else nbytes
            step = self._step(name, kind, rate_class)
            if one_src:
                step.per_node_bytes[src] += np.add.reduce(values)
            else:
                senders = src[mask] if mixed else src
                step.per_node_bytes += np.bincount(
                    senders, weights=values, minlength=self.num_nodes
                )

    def add_local(self, name: str, node: int, nbytes: float) -> Step:
        """Record a node-local copy (not network traffic)."""
        return self._record_at(name, LOCAL, "copy", node, nbytes)

    def record_phase_timing(self, timing: dict) -> None:
        """Append one phase group's wall-clock breakdown.

        Always recorded on the shared profile (never routed through a
        lane): the phase runner calls this once per group, after the
        barrier, from the coordinating thread.
        """
        self.phase_timings.append(timing)

    def timing_totals(self) -> dict:
        """Summed wall-clock breakdown over all recorded phases."""
        totals = {
            "phases": len(self.phase_timings),
            "dispatch_seconds": 0.0,
            "kernel_seconds": 0.0,
            "barrier_wait_seconds": 0.0,
            "commit_seconds": 0.0,
            "phase_seconds": 0.0,
        }
        for timing in self.phase_timings:
            for field in (
                "dispatch_seconds",
                "kernel_seconds",
                "barrier_wait_seconds",
                "commit_seconds",
                "phase_seconds",
            ):
                totals[field] += timing.get(field, 0.0)
        return totals

    def step_named(self, name: str) -> Step | None:
        """Look up a recorded step by name."""
        for step in self.steps:
            if step.name == name:
                return step
        return None

    def total_network_bytes(self) -> float:
        """Bytes crossing the network over all NET steps."""
        return sum(s.total_bytes for s in self.steps if s.kind == NET)
