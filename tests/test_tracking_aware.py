"""Tests for the rid-based hash joins of Section 3.2."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec, TrackJoin2
from repro.cluster.network import MessageClass
from repro.joins.tracking_aware import (
    LateMaterializationHashJoin,
    TrackingAwareHashJoin,
    rid_width,
)
from repro.workloads.synthetic import hot_key_workload

from conftest import assert_same_output, canonical_output, make_tables


class TestRidWidth:
    @pytest.mark.parametrize(
        "rows,expected", [(2, 1), (255, 1), (257, 2), (70_000, 3), (2**31, 4)]
    )
    def test_widths(self, rows, expected):
        assert rid_width(rows) == expected

    def test_tiny_tables(self):
        assert rid_width(0) == 1
        assert rid_width(1) == 1


class TestLateMaterialization:
    def test_matches_hash_join_output(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        late = LateMaterializationHashJoin().run(small_cluster, table_r, table_s)
        assert_same_output(reference, late)

    def test_fetch_traffic_scales_with_output(self, small_cluster):
        """LMHJ pays per output tuple, so amplified joins are expensive."""
        spec = JoinSpec()
        # Low amplification: unique keys.
        table_r, table_s = make_tables(small_cluster, np.arange(500), np.arange(500))
        low = LateMaterializationHashJoin().run(small_cluster, table_r, table_s, spec)
        # High amplification: same input sizes, 5x5 repeats per key.
        table_r2, table_s2 = make_tables(
            small_cluster, np.repeat(np.arange(100), 5), np.repeat(np.arange(100), 5)
        )
        high = LateMaterializationHashJoin().run(small_cluster, table_r2, table_s2, spec)
        assert high.output_rows == 2500
        assert high.network_bytes > low.network_bytes


class TestTrackingAware:
    def test_matches_hash_join_output(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert_same_output(reference, aware)

    def test_moves_only_narrow_payloads(self, small_cluster, small_tables):
        """Only the narrower side's payload crosses as tuples."""
        table_r, table_s = small_tables  # S payload is wider, so R moves
        result = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert result.class_bytes(MessageClass.R_TUPLES) > 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0

    def test_cheaper_than_late_materialization(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        late = LateMaterializationHashJoin().run(small_cluster, table_r, table_s)
        assert aware.network_bytes < late.network_bytes

    def test_track_join_subsumes_tracking_aware(self, small_cluster):
        """Section 3.2's claim: 2TJ costs no more than the rid-based HJ.

        2TJ deduplicates keys during tracking and resends keys (which
        are narrower than rids), so on a unique-key join with wide
        payloads it must not lose.
        """
        table_r, table_s = make_tables(
            small_cluster,
            np.arange(2000),
            np.arange(2000),
            payload_bits_r=64,
            payload_bits_s=256,
            seed=4,
        )
        spec = JoinSpec()
        track = TrackJoin2("RS").run(small_cluster, table_r, table_s, spec)
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s, spec)
        assert_same_output(track, aware)
        assert track.network_bytes <= aware.network_bytes

    def test_empty_join(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.arange(100), np.arange(500, 600)
        )
        result = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert result.output_rows == 0

    @pytest.mark.parametrize(
        "num_nodes,rows,by_class,by_link,local_bytes,digest",
        [
            (
                1, 664_518, {}, {}, 161_658.0,
                "ee610cf49faf1f178d6835454d1ae0169632df686a358994efcb1f757e24ddd1",
            ),
            (
                4, 178_849,
                {MessageClass.RIDS: 27_116.0, MessageClass.R_TUPLES: 134_520.0},
                {
                (0, 1): 13740.0,
                (0, 2): 12959.0,
                (0, 3): 14589.0,
                (1, 0): 13142.0,
                (1, 2): 12809.0,
                (1, 3): 13330.0,
                (2, 0): 13480.0,
                (2, 1): 13876.0,
                (2, 3): 14102.0,
                (3, 0): 13534.0,
                (3, 1): 13437.0,
                (3, 2): 12638.0,
            },
                None,
                "0bab42b226d27ec275399fbf5ba0681a9474672a424d307c79cb1311d5017641",
            ),
        ],
    )
    def test_hot_key_rid_dedup_pinned(
        self, num_nodes, rows, by_class, by_link, local_bytes, digest
    ):
        """Ledger and rows of an output-amplified hot-key join stay pinned.

        Hundreds of thousands of rid pairs per scheduling node go
        through the (node, pos, wide node) dedup; the expected values
        are those of the row-wise ``np.unique(..., axis=0)`` dedup the
        packed-key form replaced.
        """
        workload = hot_key_workload(
            num_nodes=num_nodes, tuples_per_table=1500, distinct_keys=150, seed=3
        )
        result = TrackingAwareHashJoin().run(
            workload.cluster, workload.table_r, workload.table_s, JoinSpec()
        )
        assert result.output_rows == rows
        assert result.traffic.by_class == by_class
        assert result.traffic.by_link == by_link
        if local_bytes is not None:
            assert result.traffic.local_bytes == local_bytes
        output = np.ascontiguousarray(canonical_output(result))
        assert hashlib.sha256(output.tobytes()).hexdigest() == digest
