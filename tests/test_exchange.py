"""Unit tests for the :mod:`repro.exchange` communication primitives.

The golden suite (``test_exchange_golden.py``) proves the operators
kept their exact traffic behavior through the refactor; this file
covers the receiver-side contracts directly — above all the requeue
branch of :func:`drain_category`, which keeps mixed-class inboxes
intact when an operator drains only the class it consumes.
"""

from __future__ import annotations

import numpy as np

from repro import Cluster
from repro.cluster.network import MessageClass
from repro.exchange import (
    Gather,
    drain_category,
    drain_payloads,
    flush,
    replicate_size,
    send_split,
)
from repro.storage import LocalPartition
from repro.timing.profile import ExecutionProfile


def _part(*keys):
    keys = np.asarray(keys, dtype=np.int64)
    return LocalPartition(keys=keys, columns={"v": keys * 10})


class TestDrainCategory:
    def test_mixed_inbox_requeues_other_categories(self):
        """Non-matching messages survive a selective drain via requeue."""
        cluster = Cluster(2)
        net = cluster.network
        net.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(1))
        net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))
        net.send(1, 1, MessageClass.R_TUPLES, 8.0, payload=_part(3))
        net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(4))

        kept = drain_category(cluster, 1, MessageClass.R_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1], [3]]

        # The S_TUPLES and FILTER messages went back on the inbox tail,
        # in their original arrival order, and a later drain finds them.
        survivors = net.deliver(1)
        assert [m.category for m in survivors] == [
            MessageClass.S_TUPLES,
            MessageClass.FILTER,
        ]
        assert [p.keys.tolist() for p in (m.payload for m in survivors)] == [[2], [4]]

    def test_sequential_drains_consume_one_class_each(self):
        """The pattern the join phase relies on: drain R, then drain S."""
        cluster = Cluster(2)
        net = cluster.network
        net.send(0, 0, MessageClass.S_TUPLES, 8.0, payload=_part(7))
        net.send(1, 0, MessageClass.R_TUPLES, 8.0, payload=_part(8))

        assert [p.keys.tolist() for p in drain_category(cluster, 0, MessageClass.R_TUPLES)] == [[8]]
        assert [p.keys.tolist() for p in drain_category(cluster, 0, MessageClass.S_TUPLES)] == [[7]]
        assert net.deliver(0) == []

    def test_requeue_never_double_accounts(self):
        """Messages were accounted at send time; drains change nothing."""
        cluster = Cluster(2)
        net = cluster.network
        net.send(0, 1, MessageClass.R_TUPLES, 16.0, payload=_part(1))
        net.send(0, 1, MessageClass.S_TUPLES, 24.0, payload=_part(2))
        before = (net.ledger.total_bytes, net.ledger.message_count)

        drain_category(cluster, 1, MessageClass.R_TUPLES)
        drain_category(cluster, 1, MessageClass.R_TUPLES)  # requeued S again

        assert (net.ledger.total_bytes, net.ledger.message_count) == before
        assert [m.category for m in net.deliver(1)] == [MessageClass.S_TUPLES]

    def test_empty_inbox(self):
        cluster = Cluster(2)
        assert drain_category(cluster, 0, MessageClass.R_TUPLES) == []
        assert drain_payloads(cluster, 0) == []


class TestRequeueEdgeCases:
    def test_requeue_empty_sequence_is_noop(self):
        cluster = Cluster(2)
        net = cluster.network
        net.requeue(1, [])
        assert net.pending_messages() == 0
        assert net.deliver(1) == []

    def test_requeue_during_open_phase_skips_staged_lanes(self):
        """Requeued messages rejoin the committed inbox immediately;
        messages staged in an open phase stay invisible until the
        barrier commits them."""
        cluster = Cluster(2)
        net = cluster.network
        net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(1))
        drained = net.deliver(1)

        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))
        net.requeue(1, drained)
        assert [m.category for m in net.deliver(1)] == [MessageClass.FILTER]
        net.end_phase()
        assert [m.category for m in net.deliver(1)] == [MessageClass.S_TUPLES]

    def test_repeated_selective_drains_preserve_arrival_order(self):
        """Messages that survive several selective drains keep their
        original relative order within the inbox."""
        cluster = Cluster(2)
        net = cluster.network
        for key in (1, 2, 3):
            net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(key))
        net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(9))

        for _ in range(3):  # each drain requeues all four survivors
            assert drain_category(cluster, 1, MessageClass.R_TUPLES) == []
        kept = drain_category(cluster, 1, MessageClass.S_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1], [2], [3]]
        assert [m.category for m in net.deliver(1)] == [MessageClass.FILTER]

    def test_requeue_under_fault_plan_stays_idempotent(self):
        """With an injector installed, a redelivery after requeue still
        dedups and restores sequence order."""
        from repro.faults import FaultPlan

        cluster = Cluster(2, fault_plan=FaultPlan(seed=0, duplicate=1.0))
        net = cluster.network
        net.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(1))
        net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))

        kept = drain_category(cluster, 1, MessageClass.R_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1]]
        survivors = net.deliver(1)
        assert [m.category for m in survivors] == [MessageClass.S_TUPLES]
        assert net.ledger.retransmit_count > 0


class TestGather:
    def test_empty_nodes_get_schema_shaped_partitions(self):
        cluster = Cluster(3)
        cluster.network.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(5))
        gathered = Gather(MessageClass.R_TUPLES, empty_names=("v",)).run(cluster)
        assert [p.num_rows for p in gathered] == [0, 1, 0]
        for partition in gathered:
            assert tuple(partition.columns) == ("v",)

    def test_concatenates_arrivals_in_order(self):
        cluster = Cluster(2)
        cluster.network.send(0, 0, MessageClass.R_TUPLES, 8.0, payload=_part(1, 2))
        cluster.network.send(1, 0, MessageClass.R_TUPLES, 8.0, payload=_part(3))
        gathered = Gather(MessageClass.R_TUPLES).run(cluster)
        assert gathered[0].keys.tolist() == [1, 2, 3]
        assert gathered[0].columns["v"].tolist() == [10, 20, 30]


class TestAccountingPrimitives:
    def test_send_split_local_vs_remote(self):
        cluster = Cluster(2)
        profile = ExecutionProfile(cluster.num_nodes)
        send_split(
            cluster, profile, MessageClass.R_TUPLES, 0, [_part(3), _part(1, 2)], 8.0,
            "Transfer x", "Local copy x",
        )
        assert cluster.network.ledger.total_bytes == 16.0
        assert cluster.network.ledger.local_bytes == 8.0
        by_step = {(s.name, s.kind): s.total_bytes for s in profile.steps}
        assert by_step[("Transfer x", "net")] == 16.0
        assert by_step[("Local copy x", "local")] == 8.0
        # The row's first entry is the self-send: its step comes first.
        assert [s.kind for s in profile.steps] == ["local", "net"]
        flush(cluster)

    def test_replicate_size_reaches_every_other_node(self):
        cluster = Cluster(4)
        profile = ExecutionProfile(cluster.num_nodes)
        replicate_size(
            cluster, profile, MessageClass.FILTER, 1, 32.0, "Broadcast filters"
        )
        ledger = cluster.network.ledger
        assert ledger.total_bytes == 3 * 32.0
        assert all(src == 1 and dst != 1 for (src, dst) in ledger.by_link)
        flush(cluster)
        assert cluster.network.pending_messages() == 0
