"""Unit tests for the network fabric and traffic ledger."""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.network import Message, MessageClass, Network, TrafficLedger
from repro.errors import NetworkError
from repro.storage.table import LocalPartition


def _random_ledger(rng: random.Random, num_nodes: int = 6) -> TrafficLedger:
    """A ledger of random messages with dyadic-rational sizes.

    Eighths of a byte sum exactly in float64, so equality below is
    bit-for-bit, not approximate.
    """
    ledger = TrafficLedger()
    classes = list(MessageClass)
    for _ in range(rng.randrange(1, 40)):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        category = rng.choice(classes)
        nbytes = rng.randrange(0, 1 << 16) / 8.0
        ledger.record(Message(src, dst, category, nbytes, None))
    return ledger


def _snapshot(ledger: TrafficLedger):
    """Order-independent, comparable view of every ledger counter."""
    return (
        sorted((category.name, nbytes) for category, nbytes in ledger.by_class.items()),
        sorted(ledger.by_link.items()),
        sorted(ledger.sent_by_node.items()),
        sorted(ledger.received_by_node.items()),
        ledger.local_bytes,
        ledger.message_count,
    )


class TestTrafficLedger:
    def test_remote_message_accounted(self):
        ledger = TrafficLedger()
        ledger.record(Message(0, 1, MessageClass.R_TUPLES, 100.0, None))
        assert ledger.total_bytes == 100.0
        assert ledger.class_bytes(MessageClass.R_TUPLES) == 100.0
        assert ledger.by_link[(0, 1)] == 100.0
        assert ledger.sent_by_node[0] == 100.0
        assert ledger.received_by_node[1] == 100.0
        assert ledger.local_bytes == 0.0

    def test_local_message_not_network_traffic(self):
        ledger = TrafficLedger()
        ledger.record(Message(2, 2, MessageClass.S_TUPLES, 50.0, None))
        assert ledger.total_bytes == 0.0
        assert ledger.local_bytes == 50.0
        assert ledger.message_count == 1

    def test_breakdown_covers_all_classes(self):
        ledger = TrafficLedger()
        ledger.record(Message(0, 1, MessageClass.KEYS_COUNTS, 10.0, None))
        breakdown = ledger.breakdown()
        assert set(breakdown) == {c.value for c in MessageClass}
        assert breakdown["keys_counts"] == 10.0
        assert breakdown["r_tuples"] == 0.0

    def test_merge_commutative(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = _random_ledger(rng), _random_ledger(rng)
            ab = a.merged_with(b)
            ba = b.merged_with(a)
            assert _snapshot(ab) == _snapshot(ba)

    def test_merge_associative(self):
        rng = random.Random(23)
        for _ in range(20):
            a, b, c = (_random_ledger(rng) for _ in range(3))
            left = a.merged_with(b).merge(c)
            right = a.merged_with(b.merged_with(c))
            assert _snapshot(left) == _snapshot(right)

    def test_merge_identity(self):
        rng = random.Random(5)
        ledger = _random_ledger(rng)
        before = _snapshot(ledger)
        assert _snapshot(ledger.merged_with(TrafficLedger())) == before
        assert _snapshot(TrafficLedger().merge(ledger)) == before

    def test_merge_mutates_in_place_and_returns_self(self):
        a = TrafficLedger()
        b = TrafficLedger()
        b.record(Message(0, 1, MessageClass.S_TUPLES, 4.0, None))
        result = a.merge(b)
        assert result is a
        assert a.total_bytes == 4.0
        # The source ledger is untouched.
        assert b.total_bytes == 4.0 and b.message_count == 1

    def test_merged_with(self):
        a = TrafficLedger()
        b = TrafficLedger()
        a.record(Message(0, 1, MessageClass.R_TUPLES, 10.0, None))
        b.record(Message(1, 0, MessageClass.R_TUPLES, 5.0, None))
        merged = a.merged_with(b)
        assert merged.total_bytes == 15.0
        assert merged.message_count == 2
        # Originals untouched.
        assert a.total_bytes == 10.0


class TestNetwork:
    def test_send_and_deliver(self):
        net = Network(3)
        net.send(0, 2, MessageClass.R_TUPLES, 42.0, payload="hello")
        assert net.pending_messages() == 1
        messages = net.deliver(2)
        assert len(messages) == 1
        assert messages[0].payload == "hello"
        assert net.pending_messages() == 0

    def test_deliver_all(self):
        net = Network(3)
        net.send(0, 1, MessageClass.R_TUPLES, 1.0)
        net.send(0, 2, MessageClass.R_TUPLES, 1.0)
        delivered = dict(net.deliver_all())
        assert set(delivered) == {1, 2}

    def test_invalid_node_rejected(self):
        net = Network(2)
        with pytest.raises(NetworkError):
            net.send(0, 5, MessageClass.R_TUPLES, 1.0)
        with pytest.raises(NetworkError):
            net.send(-1, 0, MessageClass.R_TUPLES, 1.0)
        with pytest.raises(NetworkError):
            net.deliver(3)

    def test_negative_bytes_rejected(self):
        net = Network(2)
        with pytest.raises(NetworkError):
            net.send(0, 1, MessageClass.R_TUPLES, -1.0)

    def test_non_finite_bytes_rejected(self):
        """Regression: NaN sizes silently poisoned every downstream sum."""
        net = Network(2)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NetworkError):
                net.send(0, 1, MessageClass.R_TUPLES, bad)
        # Nothing was accounted or enqueued by the rejected sends.
        assert net.ledger.message_count == 0
        assert net.pending_messages() == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(NetworkError):
            Network(0)

    def test_reset_ledger(self):
        net = Network(2)
        net.send(0, 1, MessageClass.R_TUPLES, 9.0)
        old = net.reset_ledger()
        assert old.total_bytes == 9.0
        assert net.ledger.total_bytes == 0.0

    def test_fractional_bytes(self):
        """Dictionary encodings produce sub-byte widths; they must add up."""
        net = Network(2)
        for _ in range(8):
            net.send(0, 1, MessageClass.KEYS_COUNTS, 30 / 8)
        assert net.ledger.total_bytes == pytest.approx(30.0)


class TestNetworkPhases:
    def test_lanes_commit_in_task_order(self):
        """Inbox order after the barrier follows lane order, not send order."""
        net = Network(2)
        lanes = net.begin_phase(3)
        # Bind lanes in reverse to prove commit order is lane order.
        for lane_id in (2, 1, 0):
            with net.bind_lane(lanes[lane_id]):
                net.send(0, 1, MessageClass.RIDS, 1.0, payload=lane_id)
        net.end_phase()
        payloads = [msg.payload for msg in net.deliver(1)]
        assert payloads == [0, 1, 2]

    def test_staged_sends_invisible_until_barrier(self):
        net = Network(2)
        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.RIDS, 8.0)
        # Staged: counted as pending but not yet delivered or accounted.
        assert net.pending_messages() == 1
        assert net.deliver(1) == []
        assert net.ledger.total_bytes == 0.0
        net.end_phase()
        assert net.ledger.total_bytes == 8.0
        assert len(net.deliver(1)) == 1

    def test_unbound_sends_keep_immediate_semantics(self):
        net = Network(2)
        net.begin_phase(2)
        net.send(0, 1, MessageClass.RIDS, 2.0)
        assert net.ledger.total_bytes == 2.0
        assert len(net.deliver(1)) == 1
        net.end_phase()

    def test_abort_discards_staged_lanes(self):
        net = Network(2)
        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.RIDS, 8.0)
        net.abort_phase()
        assert net.pending_messages() == 0
        assert net.ledger.total_bytes == 0.0

    def test_nested_phase_rejected(self):
        net = Network(2)
        net.begin_phase(1)
        with pytest.raises(NetworkError):
            net.begin_phase(1)
        net.abort_phase()
        with pytest.raises(NetworkError):
            net.end_phase()

    def test_reset_ledger_rejected_while_phase_open(self):
        net = Network(2)
        net.begin_phase(1)
        with pytest.raises(NetworkError):
            net.reset_ledger()
        net.abort_phase()


# -- row sends vs a per-message reference --------------------------------


@st.composite
def _row_sends(draw):
    """A node count and rows of sends, each one sender and class.

    Sizes are quarter bytes (a 30-bit key is 3.75 B), so every sum is
    exact in float64 and equality below is bit-for-bit.  A row is either
    explicit (``dsts`` + sizes, payload-carrying or size-only) or a
    destination-indexed batch list whose ``None`` entries are skipped
    and whose batches may have zero rows.
    """
    num_nodes = draw(st.sampled_from([1, 2, 8, 64]))
    node = st.integers(0, num_nodes - 1)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        src = draw(node)
        category = draw(st.sampled_from(list(MessageClass)))
        if draw(st.booleans()):
            width = draw(st.integers(0, 40)) / 4
            counts = draw(
                st.lists(
                    st.one_of(st.none(), st.integers(0, 5)),
                    max_size=num_nodes,
                )
            )
            rows.append((src, category, "batches", counts, width))
        else:
            dsts = draw(st.lists(node, max_size=12))
            sizes = [draw(st.integers(0, 4000)) / 4 for _ in dsts]
            rows.append((src, category, draw(st.sampled_from(["payload", "sized"])), dsts, sizes))
    return num_nodes, rows


def _send_row(net: Network, row):
    """Send one drawn row; returns its messages as
    (src, dst, class, nbytes, payload, size_only) tuples."""
    src, category, form, first, second = row
    if form == "batches":
        batches = [
            None
            if count is None
            else LocalPartition(keys=np.arange(count, dtype=np.int64), columns={})
            for count in first
        ]
        net.send_batches(src, category, batches, second)
        return [
            (src, dst, category, batch.num_rows * second, batch, False)
            for dst, batch in enumerate(batches)
            if batch is not None
        ]
    payloads = [(src, i) for i in range(len(first))] if form == "payload" else None
    net.send_batches(src, category, payloads, dsts=first, nbytes=second)
    return [
        (src, dst, category, nbytes, None if payloads is None else payloads[i], payloads is None)
        for i, (dst, nbytes) in enumerate(zip(first, second))
    ]


def _reference_ledger(messages):
    """Per-message accounting of (src, dst, class, nbytes) tuples."""
    by_class = defaultdict(float)
    by_link = defaultdict(float)
    sent = defaultdict(float)
    received = defaultdict(float)
    local = 0.0
    for src, dst, category, nbytes, _payload, _size_only in messages:
        if src == dst:
            local += nbytes
            continue
        by_class[category] += nbytes
        by_link[(src, dst)] += nbytes
        sent[src] += nbytes
        received[dst] += nbytes

    def nonzero(counter):
        return {key: value for key, value in counter.items() if value}

    return (
        dict(by_class),
        nonzero(by_link),
        nonzero(sent),
        nonzero(received),
        local,
        len(messages),
    )


def _ledger_views(ledger: TrafficLedger):
    return (
        ledger.by_class,
        ledger.by_link,
        ledger.sent_by_node,
        ledger.received_by_node,
        ledger.local_bytes,
        ledger.message_count,
    )


class TestRowAccounting:
    @settings(max_examples=60, deadline=None)
    @given(_row_sends(), st.booleans())
    def test_rows_match_per_message_reference(self, drawn, staged):
        """Immediate or lane-staged, a row accounts exactly like its messages."""
        num_nodes, rows = drawn
        net = Network(num_nodes)
        if staged:
            lanes = net.begin_phase(max(1, len(rows)))
            sent = [[] for _ in rows]
            # Bind lanes in reverse: commit order is lane order.
            for lane_id in reversed(range(len(rows))):
                with net.bind_lane(lanes[lane_id]):
                    sent[lane_id] = _send_row(net, rows[lane_id])
            net.end_phase()
        else:
            sent = [_send_row(net, row) for row in rows]
        messages = [message for row in sent for message in row]
        reference = _reference_ledger(messages)
        assert _ledger_views(net.ledger) == reference
        assert net.ledger.max_received_bytes == max(reference[3].values(), default=0.0)
        # Payload entries land in their inboxes in send order; size-only
        # entries are accounted but never enqueued on the fault-free path.
        for dst in range(num_nodes):
            delivered = [
                (m.src, m.category, m.nbytes, id(m.payload)) for m in net.deliver(dst)
            ]
            assert delivered == [
                (src, category, nbytes, id(payload))
                for src, d, category, nbytes, payload, size_only in messages
                if d == dst and not size_only
            ]
        assert net.pending_messages() == 0

    @settings(max_examples=40, deadline=None)
    @given(_row_sends(), st.integers(0, 3))
    def test_merge_is_a_matrix_add(self, drawn, split):
        """Ledgers of any split of the rows merge to the whole run's ledger."""
        num_nodes, rows = drawn
        whole = Network(num_nodes)
        for row in rows:
            _send_row(whole, row)
        parts = [Network(num_nodes), Network(num_nodes)]
        for index, row in enumerate(rows):
            _send_row(parts[index < split], row)
        merged = TrafficLedger().merge(parts[0].ledger).merge(parts[1].ledger)
        assert _ledger_views(merged) == _ledger_views(whole.ledger)

    def test_size_only_rows_reach_inboxes_under_faults(self):
        """A fault plan sees every entry of a size-only row as a message."""
        from repro.faults import FaultPlan

        net = Network(3)
        net.set_fault_plan(FaultPlan(seed=1, reorder=0.5))
        net.send_batches(0, MessageClass.KEYS_NODES, None, dsts=[1, 2, 0], nbytes=[1.0, 2.0, 3.0])
        assert [m.nbytes for m in net.deliver(1)] == [1.0]
        assert [m.nbytes for m in net.deliver(0)] == [3.0]
        assert net.ledger.message_count == 3

    def test_sequence_numbers_count_size_only_entries(self):
        net = Network(2)
        net.send_batches(0, MessageClass.KEYS_COUNTS, None, dsts=[1, 1], nbytes=[1.0, 1.0])
        net.send(0, 1, MessageClass.R_TUPLES, 4.0, payload="p")
        (msg,) = net.deliver(1)
        assert msg.seq == 2

    @pytest.mark.parametrize(
        "dsts, nbytes",
        [
            ([0, 2], [1.0, 1.0]),
            ([-1], [1.0]),
            ([1], [float("nan")]),
            ([1, 0], [1.0, -0.25]),
            ([0], [float("inf")]),
            ([0, 1], [1.0]),
        ],
    )
    def test_bulk_path_rejects_bad_rows(self, dsts, nbytes):
        net = Network(2)
        with pytest.raises(NetworkError):
            net.send_batches(0, MessageClass.R_TUPLES, None, dsts=dsts, nbytes=nbytes)
        # The whole row is refused: nothing accounted or enqueued.
        assert net.ledger.message_count == 0
        assert net.pending_messages() == 0

    def test_bulk_path_rejects_bad_sender_and_width(self):
        net = Network(2)
        batch = LocalPartition(keys=np.arange(2, dtype=np.int64), columns={})
        with pytest.raises(NetworkError):
            net.send_batches(2, MessageClass.R_TUPLES, [batch], 1.0)
        with pytest.raises(NetworkError):
            net.send_batches(0, MessageClass.R_TUPLES, [batch], float("nan"))
        with pytest.raises(NetworkError):
            net.send_batches(0, MessageClass.R_TUPLES, [batch, None, batch], 1.0)
        assert net.ledger.message_count == 0

