"""Simulated cluster interconnect with exact byte accounting per message class and link.

The paper measures distributed joins primarily by the *network traffic*
they generate, broken down by message class (Figures 3-11 stack the bars
as "Keys & Counts", "Keys & Nodes", "R Tuples", "S Tuples").  This module
provides the fabric those experiments run on: every transfer between two
simulated nodes goes through :meth:`Network.send_batches`, which takes
one *row* per call — all of one sender's messages of one class, indexed
by destination — delivers the payloads to the destination inboxes, and
records the encoded sizes in a :class:`TrafficLedger`.  Accounting is
per row, not per message: the ledger keeps one N×N byte matrix per
message class and adds a whole row into it at once.

Local sends (``src == dst``) are delivered but accounted separately, the
same way the paper's implementation separates "local copy" from "transfer"
steps (Tables 3 and 4).

Concurrent senders
------------------
The parallel engine runs many nodes' phase work at once, so accounting
must stay deterministic under arbitrary thread interleaving.  During an
open *phase* (:meth:`Network.begin_phase`), each task binds its own
:class:`SendLane`: its rows are staged in the lane's private row list
instead of touching shared state.  The phase barrier
(:meth:`Network.end_phase`) commits lanes in task order — each staged
row is added into the ledger's matrix and appends its messages to the
destination inboxes — so byte totals, per-link bytes, and inbox
ordering are bit-identical for every worker count and interleaving.
Messages staged inside a phase only become visible to :meth:`deliver`
after the barrier, which is exactly the paper's non-pipelined phase
semantics.

Size-only rows — messages whose content the simulation reconstructs
from shared state, such as tracking (key, count) streams and (key, node)
location lists — are accounted in full but, on the fault-free path,
never become :class:`Message` objects or inbox entries.  They still
take their block of sequence numbers, so numbering is the same with or
without a fault plan.

Zero-copy payloads
------------------
Payloads are handed to :meth:`send_batches` by reference: operators
pass numpy views (e.g. the slices produced by ``LocalPartition.split_by``)
and the network never copies them.  The copy-on-conflict rule: a sender
must not mutate a payload's underlying buffers after handing it over; a
sender that intends to reuse or mutate the buffers passes ``copy=True``
(or copies itself) so the network materializes a private snapshot at
send time.  Receivers own what they are handed and must likewise treat
it as immutable (they concatenate into fresh arrays when merging).
Every validated row passes through one staging point
(``Network._stage_row``), which is where the runtime sanitizer
(:mod:`repro.analysis.sanitizer`) freezes lane-staged payloads until
the barrier.

Fault injection
---------------
With a :class:`~repro.faults.plan.FaultPlan` installed
(:meth:`Network.set_fault_plan`), the phase barrier additionally runs
every committed message — each entry of a row, size-only ones included,
in row order — through the plan's
:class:`~repro.faults.injector.FaultInjector`: messages may be dropped
(and retransmitted with backoff on a virtual clock), duplicated,
delayed, or reordered within a link, and :meth:`deliver` becomes
idempotent (sequence-number sort plus duplicate elimination).  Goodput
accounting is untouched — recovery overhead lands in the ledger's
separate retransmit counters — and with no plan installed none of these
code paths run at all.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import NetworkError

__all__ = ["MessageClass", "Message", "TrafficLedger", "SendLane", "Network"]


class MessageClass(enum.Enum):
    """Classification of network messages, matching the paper's figures."""

    #: Tracking-phase messages: projected join keys, optionally with
    #: per-node match counts (2TJ sends bare keys; 3TJ/4TJ add counts).
    KEYS_COUNTS = "keys_counts"
    #: Scheduling messages: (key, node) pairs carrying selective-broadcast
    #: destinations or migration targets.
    KEYS_NODES = "keys_nodes"
    #: Tuples of table R (key + R payload).
    R_TUPLES = "r_tuples"
    #: Tuples of table S (key + S payload).
    S_TUPLES = "s_tuples"
    #: Bloom filters broadcast for semi-join reduction (Section 3.3).
    FILTER = "filter"
    #: Record-identifier messages of the tracking-aware hash join (Sec 3.2).
    RIDS = "rids"
    #: Partial aggregates exchanged by distributed group-by operators.
    AGGREGATES = "aggregates"


@dataclass
class Message:
    """A single delivered message.

    Attributes
    ----------
    src, dst:
        Node indices.
    category:
        The :class:`MessageClass` the bytes are accounted under.
    nbytes:
        Encoded wire size.  May be fractional: dictionary encodings are
        accounted at bit granularity (e.g. a 30-bit key is 3.75 bytes),
        exactly as the paper's simulations do.
    payload:
        Arbitrary python/numpy content consumed by the receiving operator.
        Handed over zero-copy; see the module notes for the
        copy-on-conflict rule.
    seq:
        Globally monotonic sequence number, assigned by the network in
        deterministic commit order (immediate sends at send time, staged
        sends at the barrier in lane order).  Fault-free inbox order is
        always ascending in ``seq``, which is what lets the fault
        injector's receivers (:mod:`repro.faults`) restore exact
        fault-free delivery order by sorting and dedup duplicates
        idempotently.  ``-1`` until committed.
    """

    src: int
    dst: int
    category: MessageClass
    nbytes: float
    payload: Any
    seq: int = -1


class TrafficLedger:
    """Byte counters of one run: a per-class N×N matrix of goodput bytes.

    ``matrices[c][src, dst]`` holds the bytes of class ``c`` that crossed
    the link ``src -> dst``; a class's matrix is allocated on its first
    remote message.  Local copies (``src == dst``) never enter a matrix —
    they only bump ``local_bytes`` — and ``message_count`` counts every
    accounted message, local or remote.  ``by_class``, ``by_link``,
    ``sent_by_node`` and ``received_by_node`` are views derived from the
    matrices; links and nodes that carried no bytes are absent from
    them.  Recording is one :meth:`record_row` per (sender, destination
    row), and :meth:`merge` is a matrix add.

    Goodput (first-transmission) bytes live in the matrices; recovery
    overhead — retransmissions and wire duplicates injected by a
    :class:`~repro.faults.plan.FaultPlan` — is accounted separately in
    ``retransmit_by_class``, so fault-injected runs keep a goodput
    ledger byte-identical to the fault-free run while the recovery cost
    stays measurable alongside the paper's byte breakdowns.  On the
    fault-free fast path the retransmit counters are provably zero
    (nothing ever records into them).

    ``num_nodes`` sizes the matrices up front; a ledger created without
    it grows them to the largest node index it is handed.
    """

    def __init__(self, num_nodes: int = 0):
        self.num_nodes = num_nodes
        self.matrices: dict[MessageClass, np.ndarray] = {}
        self.local_bytes = 0.0
        self.message_count = 0
        self.retransmit_by_class: dict[MessageClass, float] = defaultdict(float)
        self.retransmit_count = 0

    def _grow(self, num_nodes: int) -> None:
        """Widen every matrix to ``num_nodes`` square (zero-padded)."""
        if num_nodes <= self.num_nodes:
            return
        for category, matrix in self.matrices.items():
            wider = np.zeros((num_nodes, num_nodes))
            wider[: self.num_nodes, : self.num_nodes] = matrix
            self.matrices[category] = wider
        self.num_nodes = num_nodes

    def record_row(
        self,
        src: int,
        category: MessageClass,
        dsts: np.ndarray,
        nbytes: np.ndarray,
    ) -> None:
        """Account one row: messages from ``src`` to ``dsts[i]`` of ``nbytes[i]``.

        ``dsts`` (int64) and ``nbytes`` (float64) are parallel arrays and
        may repeat a destination.  Entries addressed to ``src`` itself
        are local copies.  Callers validate the entries
        (:meth:`Network.send_batches` does).
        """
        if len(dsts) == 0:
            return
        self.message_count += len(dsts)
        row = np.bincount(dsts, weights=nbytes, minlength=self.num_nodes)
        if len(row) > self.num_nodes or src >= self.num_nodes:
            self._grow(max(len(row), src + 1))
            row = np.bincount(dsts, weights=nbytes, minlength=self.num_nodes)
        local = row[src]
        self.local_bytes += float(local)
        matrix = self.matrices.get(category)
        if matrix is None:
            if not (dsts != src).any():
                return
            matrix = self.matrices[category] = np.zeros((self.num_nodes, self.num_nodes))
        row[src] = 0.0
        matrix[src] += row

    def record(self, msg: Message) -> None:
        """Account one message; local messages only bump ``local_bytes``."""
        self.record_row(
            msg.src,
            msg.category,
            np.array([msg.dst], dtype=np.int64),
            np.array([msg.nbytes], dtype=np.float64),
        )

    def record_retransmit(self, category: MessageClass, nbytes: float) -> None:
        """Account one retransmitted (or duplicated) wire copy.

        Kept apart from :meth:`record_row`: retransmissions are recovery
        overhead, not goodput, and must never perturb ``total_bytes``
        or the per-class breakdowns the paper's figures compare.
        """
        self.retransmit_by_class[category] += nbytes
        self.retransmit_count += 1

    # -- views -----------------------------------------------------------

    def link_bytes(self) -> np.ndarray:
        """N×N goodput bytes per link, summed over message classes."""
        total = np.zeros((self.num_nodes, self.num_nodes))
        for matrix in self.matrices.values():
            total += matrix
        return total

    @property
    def by_class(self) -> dict[MessageClass, float]:
        """Remote bytes per message class (classes with remote messages)."""
        return {category: float(m.sum()) for category, m in self.matrices.items()}

    @property
    def by_link(self) -> dict[tuple[int, int], float]:
        """Remote bytes per ``(src, dst)`` link that carried any."""
        links = self.link_bytes()
        srcs, dsts = np.nonzero(links)
        return {
            (src, dst): nbytes
            for src, dst, nbytes in zip(
                srcs.tolist(), dsts.tolist(), links[srcs, dsts].tolist()
            )
        }

    @staticmethod
    def _nonzero(per_node: np.ndarray) -> dict[int, float]:
        nodes = np.flatnonzero(per_node)
        return dict(zip(nodes.tolist(), per_node[nodes].tolist()))

    @property
    def sent_by_node(self) -> dict[int, float]:
        """Remote bytes sent per node (nodes that sent any)."""
        return self._nonzero(self.link_bytes().sum(axis=1))

    @property
    def received_by_node(self) -> dict[int, float]:
        """Remote bytes received per node (nodes that received any)."""
        return self._nonzero(self.link_bytes().sum(axis=0))

    @property
    def total_bytes(self) -> float:
        """Total bytes that crossed the network (local copies excluded)."""
        return float(sum(self.by_class.values()))

    @property
    def retransmit_bytes(self) -> float:
        """Recovery overhead bytes (retransmissions and duplicates)."""
        return float(sum(self.retransmit_by_class.values()))

    @property
    def max_received_bytes(self) -> float:
        """Goodput bytes received by the most loaded node.

        The skew metric of Section 5: minimal total traffic can still
        concentrate transfers on one node; this is the concentration.
        """
        return float(max(self.received_by_node.values(), default=0.0))

    @property
    def max_sent_bytes(self) -> float:
        """Goodput bytes sent by the most loaded node."""
        return float(max(self.sent_by_node.values(), default=0.0))

    def class_bytes(self, category: MessageClass) -> float:
        """Bytes accounted under one message class."""
        return float(self.by_class.get(category, 0.0))

    def breakdown(self) -> dict[str, float]:
        """Human-readable byte breakdown keyed by message-class value."""
        by_class = self.by_class
        return {c.value: float(by_class.get(c, 0.0)) for c in MessageClass}

    def retransmit_breakdown(self) -> dict[str, float]:
        """Recovery-overhead bytes keyed by message-class value."""
        return {
            c.value: float(self.retransmit_by_class.get(c, 0.0)) for c in MessageClass
        }

    def merge(self, other: "TrafficLedger") -> "TrafficLedger":
        """Accumulate ``other`` into this ledger in place; returns ``self``.

        A matrix add per class (e.g. a query folding in each operator's
        ledger).  Merging is order-insensitive for the dyadic-rational
        sizes the encodings produce (all sums are exact in float64).
        """
        self._grow(other.num_nodes)
        size = other.num_nodes
        for category, matrix in other.matrices.items():
            mine = self.matrices.get(category)
            if mine is None:
                mine = self.matrices[category] = np.zeros((self.num_nodes, self.num_nodes))
            mine[:size, :size] += matrix
        self.local_bytes += other.local_bytes
        self.message_count += other.message_count
        for category, nbytes in other.retransmit_by_class.items():
            self.retransmit_by_class[category] += nbytes
        self.retransmit_count += other.retransmit_count
        return self

    def merged_with(self, other: "TrafficLedger") -> "TrafficLedger":
        """Return a new ledger combining this one and ``other``."""
        return TrafficLedger().merge(self).merge(other)


#: One staged row: ``(src, category, dsts, nbytes, payloads)``, where
#: ``payloads`` is a list parallel to ``dsts`` or ``None`` for a
#: size-only row.
Row = tuple[int, MessageClass, np.ndarray, np.ndarray, "list[Any] | None"]


class SendLane:
    """Per-task staging buffer used while a network phase is open.

    A lane collects one task's outgoing rows privately, so concurrent
    tasks never contend on shared state; the phase barrier accounts and
    commits lanes in task order.  A lane holds no ledger of its own: a
    row costs one ledger row add whenever it is accounted, and a
    per-lane N×N matrix would cost N² memory per task.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[Row] = []


class Network:
    """Message fabric connecting ``num_nodes`` simulated nodes.

    The fabric is symmetric and fully connected (every node can send to
    all others, all links have the same performance), mirroring the
    cluster assumptions of Section 2.  Operators send one row per call
    with :meth:`send_batches` and drain destination inboxes at phase
    boundaries with :meth:`deliver`, which mimics the
    barrier-synchronised, non-pipelined implementation the paper
    evaluates in Section 4.2.
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise NetworkError(f"a cluster needs at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.ledger = TrafficLedger(num_nodes)
        self._inboxes: list[list[Message]] = [[] for _ in range(num_nodes)]
        self._phase_lanes: list[SendLane] | None = None
        self._tls = threading.local()
        #: Active fault injector, or ``None`` for the fault-free fast
        #: path (which stays byte-for-byte the pre-fault code path).
        self.faults = None
        self._next_seq = 0

    def set_fault_plan(self, plan) -> None:
        """Install (or clear, with ``None``) a seeded fault-injection plan.

        A null plan (``plan.is_null()``) installs no injector: the
        fault-free fast path must stay untouched so golden-equivalence
        ledgers remain byte-identical.
        """
        if plan is None or plan.is_null():
            self.faults = None
            return
        from ..faults.injector import FaultInjector

        self.faults = FaultInjector(plan)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(
                f"node index {node} out of range for {self.num_nodes}-node cluster"
            )

    @staticmethod
    def _check_size(nbytes: float) -> None:
        if not 0 <= nbytes < math.inf:
            raise NetworkError(
                f"message size must be finite and non-negative, got {nbytes}"
            )

    # -- phases and lanes ------------------------------------------------

    def begin_phase(self, num_lanes: int) -> list[SendLane]:
        """Open a phase with ``num_lanes`` staging lanes (one per task).

        While the phase is open, sends from a thread bound to a lane
        (:meth:`bind_lane`) are staged in that lane; unbound sends (the
        coordinating thread) keep immediate semantics, which is safe
        because the coordinator is single-threaded and runs at fixed
        points relative to the barrier.
        """
        if self._phase_lanes is not None:
            raise NetworkError("a network phase is already open (missing barrier?)")
        self._phase_lanes = [SendLane() for _ in range(num_lanes)]
        if self.faults is not None:
            self.faults.begin_phase()
        return self._phase_lanes

    @contextmanager
    def bind_lane(self, lane: SendLane):
        """Route this thread's sends into ``lane`` for the duration."""
        previous = getattr(self._tls, "lane", None)
        self._tls.lane = lane
        try:
            yield lane
        finally:
            self._tls.lane = previous

    def end_phase(self) -> None:
        """Barrier: commit all lanes in task order and close the phase.

        Staged rows are accounted in the master ledger and appended to
        the destination inboxes, both in lane (= task) order, making the
        committed state independent of execution order.
        """
        lanes = self._phase_lanes
        if lanes is None:
            raise NetworkError("no network phase is open")
        self._phase_lanes = None
        if self.faults is None:
            for lane in lanes:
                for row in lane.rows:
                    self.ledger.record_row(*row[:4])
                    self._enqueue_row(*row)
            return
        # Fault-injected barrier: goodput accounting is identical (every
        # row is accounted unchanged), then every destination's staged
        # batch runs through the injector on this (coordinator) thread
        # in deterministic lane order, so drops, retransmissions,
        # duplicates, and reorders are bit-identical across worker
        # counts.  A retry budget exhaustion raises FaultExhaustedError
        # with the phase already closed; callers unwind via abort_phase.
        staged: dict[int, list[Message]] = {}
        for lane in lanes:
            for row in lane.rows:
                self.ledger.record_row(*row[:4])
                for msg in self._row_messages(*row):
                    staged.setdefault(msg.dst, []).append(msg)
        for dst in sorted(staged):
            self._inboxes[dst].extend(
                self.faults.commit_batch(dst, staged[dst], self.ledger)
            )
        self.faults.barrier()

    def abort_phase(self) -> None:
        """Discard all staged lanes (error path; accounting unwinds)."""
        self._phase_lanes = None

    # -- sending ---------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        category: MessageClass,
        nbytes: float,
        payload: Any = None,
    ) -> None:
        """Send one message from ``src`` to ``dst``: a one-entry row.

        The message is delivered even without a payload; see
        :meth:`send_batches` for staging and validation.
        """
        self.send_batches(src, category, [payload], dsts=[dst], nbytes=[nbytes])

    def send_batches(
        self,
        src: int,
        category: MessageClass,
        batches: Sequence[Any] | None,
        width: float = 0.0,
        *,
        dsts: Sequence[int] | np.ndarray | None = None,
        nbytes: Sequence[float] | np.ndarray | None = None,
        copy: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Send one row of messages from ``src``; the only send path.

        A row comes in one of two shapes:

        - **destination-indexed batches** (``dsts`` omitted): the list
          ``LocalPartition.split_by`` produces; ``None`` entries are
          skipped and each remaining batch becomes one message of
          ``batch.num_rows * width`` bytes to its index;
        - **explicit entries**: ``dsts`` and ``nbytes`` are parallel
          arrays, one message per entry (destinations may repeat).
          ``batches`` is then a payload list parallel to ``dsts``, or
          ``None`` for a *size-only* row: its messages are accounted in
          full, but on the fault-free path they are never materialized
          as :class:`Message` objects or inbox entries — nobody reads a
          payload that does not exist.  Under a fault plan every entry
          still becomes one message, so the fault model sees the same
          message stream either way.

        The whole row is validated before anything is accounted: node
        indices must be in range and sizes finite and non-negative,
        else :class:`~repro.errors.NetworkError`.  Payloads are handed
        off as zero-copy views unless ``copy=True``, which snapshots
        each one for senders that will mutate the underlying buffers
        afterwards (the copy-on-conflict rule).

        Returns the row's ``(dsts, nbytes)`` arrays, in send order, so
        callers can account profile work without re-deriving sizes.
        """
        self._check_node(src)
        if dsts is None:
            if batches is None:
                raise NetworkError("a size-only row needs explicit dsts and nbytes")
            if len(batches) > self.num_nodes:
                raise NetworkError(
                    f"{len(batches)} destination batches for a "
                    f"{self.num_nodes}-node cluster"
                )
            # Row counts are non-negative, so the width alone decides
            # whether every size is valid.
            self._check_size(width)
            present = [dst for dst, batch in enumerate(batches) if batch is not None]
            payloads: list[Any] | None = [batches[dst] for dst in present]
            row_dsts = np.array(present, dtype=np.int64)
            sizes = np.array([batch.num_rows for batch in payloads], dtype=np.float64) * width
        else:
            if nbytes is None:
                raise NetworkError("explicit dsts need parallel nbytes")
            row_dsts = np.asarray(dsts, dtype=np.int64).reshape(-1)
            sizes = np.asarray(nbytes, dtype=np.float64).reshape(-1)
            payloads = None if batches is None else list(batches)
            if len(sizes) != len(row_dsts) or (
                payloads is not None and len(payloads) != len(row_dsts)
            ):
                raise NetworkError(
                    f"row of {len(row_dsts)} destinations got {len(sizes)} sizes"
                    + ("" if payloads is None else f" and {len(payloads)} payloads")
                )
            if len(row_dsts):
                # Viewed unsigned, negative indices wrap above any node
                # count; NaN fails both size comparisons.
                if np.maximum.reduce(row_dsts.view(np.uint64)) >= self.num_nodes:
                    bad = (row_dsts < 0) | (row_dsts >= self.num_nodes)
                    self._check_node(int(row_dsts[bad][0]))
                if not (
                    np.minimum.reduce(sizes) >= 0
                    and np.maximum.reduce(sizes) < math.inf
                ):
                    self._check_size(sizes[~((sizes >= 0) & (sizes < math.inf))][0])
        if copy and payloads is not None:
            payloads = [None if p is None else p.copy() for p in payloads]
        self._stage_row(src, category, row_dsts, sizes, payloads)
        return row_dsts, sizes

    def _stage_row(
        self,
        src: int,
        category: MessageClass,
        dsts: np.ndarray,
        nbytes: np.ndarray,
        payloads: list[Any] | None,
    ) -> None:
        """The single staging point of every validated row.

        Inside an open phase with a bound lane, the row is staged and
        becomes visible at the barrier; otherwise (the coordinator) it
        is accounted and enqueued immediately.
        """
        lane: SendLane | None = getattr(self._tls, "lane", None)
        if lane is not None:
            lane.rows.append((src, category, dsts, nbytes, payloads))
            return
        self.ledger.record_row(src, category, dsts, nbytes)
        if self.faults is None:
            self._enqueue_row(src, category, dsts, nbytes, payloads)
            return
        # Immediate (coordinator) sends run the fault model at send
        # time; the coordinator is single-threaded, so draw order stays
        # deterministic.
        for msg in self._row_messages(src, category, dsts, nbytes, payloads):
            if msg.src == msg.dst:
                self._inboxes[msg.dst].append(msg)
            else:
                self._inboxes[msg.dst].extend(self.faults.transmit(msg, self.ledger))

    def _row_messages(
        self,
        src: int,
        category: MessageClass,
        dsts: np.ndarray,
        nbytes: np.ndarray,
        payloads: list[Any] | None,
    ) -> list[Message]:
        """Materialize every entry of a row, stamping its sequence block."""
        start = self._next_seq
        self._next_seq += len(dsts)
        if payloads is None:
            payloads = [None] * len(dsts)
        return [
            Message(src, dst, category, size, payload, start + offset)
            for offset, (dst, size, payload) in enumerate(
                zip(dsts.tolist(), nbytes.tolist(), payloads)
            )
        ]

    def _enqueue_row(
        self,
        src: int,
        category: MessageClass,
        dsts: np.ndarray,
        nbytes: np.ndarray,
        payloads: list[Any] | None,
    ) -> None:
        """Fault-free commit: payload entries land in their inboxes.

        A size-only row only advances the sequence counter, keeping
        sequence numbers identical to a faulted run's.
        """
        if payloads is None:
            self._next_seq += len(dsts)
            return
        for msg in self._row_messages(src, category, dsts, nbytes, payloads):
            self._inboxes[msg.dst].append(msg)

    # -- delivery --------------------------------------------------------

    def deliver(self, dst: int) -> list[Message]:
        """Drain and return all messages queued for node ``dst``.

        Called by operators at a barrier: everything sent during the
        preceding phase becomes visible at once.  Messages still staged
        in an open phase's lanes are not included — they appear after
        :meth:`end_phase`.  Concurrent delivery is safe for distinct
        destinations (each inbox belongs to one node's task).

        Under an active fault plan, delivery is idempotent: the drained
        messages are sorted by sequence number (restoring exact
        fault-free arrival order after reorders and requeues) and wire
        duplicates are dropped.
        """
        self._check_node(dst)
        messages, self._inboxes[dst] = self._inboxes[dst], []
        if self.faults is not None and messages:
            messages = self.faults.dedup_and_order(messages)
        return messages

    def deliver_all(self) -> Iterator[tuple[int, list[Message]]]:
        """Drain every inbox, yielding ``(node, messages)`` pairs."""
        for node in range(self.num_nodes):
            messages = self.deliver(node)
            if messages:
                yield node, messages

    def requeue(self, dst: int, messages: Sequence[Message]) -> None:
        """Put selectively-drained messages back on ``dst``'s inbox tail.

        For receivers that :meth:`deliver` a full inbox but consume only
        one message category: undrained messages return through this
        accessor instead of the private inbox list, so the REP003 lint
        rule can hold everything else to the SendLane staging contract.
        Requeued messages were already accounted when first sent.
        """
        self._check_node(dst)
        self._inboxes[dst].extend(messages)

    def clear_inboxes(self) -> int:
        """Discard every undelivered message; returns how many were dropped.

        Recovery hook: after a join aborts mid-phase (e.g. a
        :class:`~repro.errors.FaultExhaustedError` escaped the retry
        budget), committed-but-undrained messages linger in the inboxes.
        ``Cluster.reset`` calls this so the next join — including an
        optimizer's degraded fallback run — starts from a clean fabric.
        """
        dropped = 0
        for inbox in self._inboxes:
            dropped += len(inbox)
            inbox.clear()
        return dropped

    def pending_messages(self) -> int:
        """Number of sent-but-undelivered messages (should be 0 after a join).

        Counts both committed inbox messages and messages staged in an
        open phase's lanes; fault-free size-only entries never reach an
        inbox and are not counted.
        """
        pending = sum(len(inbox) for inbox in self._inboxes)
        if self._phase_lanes is not None:
            pending += sum(
                len(dsts)
                for lane in self._phase_lanes
                for _src, _category, dsts, _nbytes, payloads in lane.rows
                if payloads is not None or self.faults is not None
            )
        return pending

    def reset_ledger(self) -> TrafficLedger:
        """Swap in a fresh ledger and return the old one.

        Refuses while a phase is open: the old ledger would be missing
        the staged lanes' bytes.
        """
        if self._phase_lanes is not None:
            raise NetworkError("cannot reset the ledger while a phase is open")
        old, self.ledger = self.ledger, TrafficLedger()
        return old
