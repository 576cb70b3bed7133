"""Integration tests: every distributed join produces the same output.

This is the central correctness property of the library — broadcast,
Grace hash, rid-based, Bloom-filtered, and all track join variants are
different *transfer strategies* for the same equi-join, so their output
multisets must be identical on every input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BroadcastJoin,
    Cluster,
    GraceHashJoin,
    JoinSpec,
    TrackJoin2,
    TrackJoin3,
    TrackJoin4,
)
from repro.cluster.network import MessageClass
from repro.errors import JoinConfigError, ValidationError
from repro.faults import FaultPlan
from repro.joins import (
    LateMaterializationHashJoin,
    SemiJoinFilteredJoin,
    TrackingAwareHashJoin,
)
from repro.joins.registry import algorithm_names, create
from repro.timing import paper_cluster_2014
from repro.workloads.synthetic import hot_key_workload

from conftest import assert_same_output, canonical_output, make_tables


def all_algorithms():
    return [
        GraceHashJoin(),
        BroadcastJoin("R"),
        BroadcastJoin("S"),
        TrackJoin2("RS"),
        TrackJoin2("SR"),
        TrackJoin3(),
        TrackJoin4(),
        LateMaterializationHashJoin(),
        TrackingAwareHashJoin(),
        SemiJoinFilteredJoin(GraceHashJoin()),
        SemiJoinFilteredJoin(TrackJoin4()),
    ]


class TestOutputEquality:
    def test_all_algorithms_agree(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        for algorithm in all_algorithms()[1:]:
            result = algorithm.run(small_cluster, table_r, table_s)
            assert_same_output(reference, result)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=0, max_size=120),
        st.lists(st.integers(0, 30), min_size=0, max_size=120),
        st.integers(2, 6),
        st.integers(0, 100),
    )
    def test_random_inputs_agree(self, keys_r, keys_s, num_nodes, seed):
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        results = [
            algorithm.run(cluster, table_r, table_s)
            for algorithm in (
                GraceHashJoin(),
                TrackJoin2("RS"),
                TrackJoin2("SR"),
                TrackJoin3(),
                TrackJoin4(),
                TrackingAwareHashJoin(),
            )
        ]
        for other in results[1:]:
            assert_same_output(results[0], other)

    def test_empty_inputs(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        for algorithm in all_algorithms():
            result = algorithm.run(small_cluster, table_r, table_s)
            assert result.output_rows == 0

    def test_disjoint_keys(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.arange(0, 100), np.arange(1000, 1100)
        )
        for algorithm in all_algorithms():
            assert algorithm.run(small_cluster, table_r, table_s).output_rows == 0

    def test_skewed_single_key(self, small_cluster):
        """One hot key repeated on both sides exercises cartesian output."""
        table_r, table_s = make_tables(
            small_cluster, np.zeros(50, dtype=np.int64), np.zeros(40, dtype=np.int64)
        )
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        assert reference.output_rows == 2000
        for algorithm in (TrackJoin3(), TrackJoin4(), TrackingAwareHashJoin()):
            assert_same_output(reference, algorithm.run(small_cluster, table_r, table_s))

    def test_single_node_cluster(self):
        cluster = Cluster(1)
        table_r, table_s = make_tables(
            cluster, np.array([1, 2, 2]), np.array([2, 3])
        )
        for algorithm in all_algorithms():
            result = algorithm.run(cluster, table_r, table_s)
            assert result.output_rows == 2
            assert result.network_bytes == 0.0, algorithm.name


class TestTrafficInvariants:
    def test_single_node_no_traffic(self):
        cluster = Cluster(1)
        table_r, table_s = make_tables(cluster, np.arange(100), np.arange(100))
        result = TrackJoin4().run(cluster, table_r, table_s)
        assert result.network_bytes == 0.0

    def test_hash_join_moves_most_tuples(self, small_cluster, small_tables):
        """Grace hash join moves ~(1 - 1/N) of both tables."""
        table_r, table_s = small_tables
        spec = JoinSpec()
        result = GraceHashJoin().run(small_cluster, table_r, table_s, spec)
        expected = 0.75 * (
            table_r.total_rows * table_r.schema.tuple_width(spec.encoding)
            + table_s.total_rows * table_s.schema.tuple_width(spec.encoding)
        )
        moved = result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
            MessageClass.S_TUPLES
        )
        assert moved == pytest.approx(expected, rel=0.1)

    def test_broadcast_replicates_table(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        spec = JoinSpec()
        result = BroadcastJoin("R").run(small_cluster, table_r, table_s, spec)
        expected = (
            table_r.total_rows
            * table_r.schema.tuple_width(spec.encoding)
            * (small_cluster.num_nodes - 1)
        )
        assert result.class_bytes(MessageClass.R_TUPLES) == pytest.approx(expected)
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0

    def test_track_join_payload_never_exceeds_simple_variants(self, small_cluster):
        """4TJ payload traffic <= each 2TJ direction and 3TJ (optimality)."""
        rng = np.random.default_rng(3)
        table_r, table_s = make_tables(
            small_cluster,
            rng.integers(0, 150, 1200),
            rng.integers(50, 250, 1800),
            seed=5,
        )
        spec = JoinSpec()

        def payload_bytes(result):
            return result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
                MessageClass.S_TUPLES
            )

        four = payload_bytes(TrackJoin4().run(small_cluster, table_r, table_s, spec))
        for simpler in (TrackJoin2("RS"), TrackJoin2("SR"), TrackJoin3()):
            other = payload_bytes(simpler.run(small_cluster, table_r, table_s, spec))
            assert four <= other + 1e-6, simpler.name

    def test_perfect_collocation_no_payload_traffic(self):
        """Matching tuples all on the same node: 4TJ ships no payloads."""
        cluster = Cluster(4)
        keys = np.arange(400, dtype=np.int64)
        from repro.storage import by_key_hash, Schema

        nodes = by_key_hash(keys, 4, seed=99)
        schema = Schema.with_widths(32, 64)
        table_r = cluster.table_from_assignment("R", schema, keys, nodes)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes)
        result = TrackJoin4().run(cluster, table_r, table_s)
        assert result.class_bytes(MessageClass.R_TUPLES) == 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0
        assert result.output_rows == 400

    def test_traffic_scales_linearly(self):
        """Doubling table size ~doubles every algorithm's traffic."""
        for algorithm_factory in (GraceHashJoin, TrackJoin4):
            totals = []
            for size in (2000, 4000):
                cluster = Cluster(4)
                rng = np.random.default_rng(11)
                table_r, table_s = make_tables(
                    cluster,
                    rng.integers(0, size // 2, size),
                    rng.integers(0, size // 2, size),
                    seed=1,
                )
                result = algorithm_factory().run(cluster, table_r, table_s)
                totals.append(result.network_bytes)
            assert totals[1] == pytest.approx(2 * totals[0], rel=0.05)

    def test_no_pending_messages_after_join(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        for algorithm in all_algorithms():
            algorithm.run(small_cluster, table_r, table_s)
            assert small_cluster.network.pending_messages() == 0


class TestJoinConfig:
    def test_wrong_cluster_size_rejected(self, small_tables):
        table_r, table_s = small_tables
        other = Cluster(7)
        with pytest.raises(JoinConfigError):
            GraceHashJoin().run(other, table_r, table_s)

    def test_materialize_false_keeps_counts(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        spec = JoinSpec(materialize=False)
        lean = GraceHashJoin().run(small_cluster, table_r, table_s, spec)
        full = GraceHashJoin().run(small_cluster, table_r, table_s)
        assert lean.output is None
        assert lean.output_rows == full.output_rows
        with pytest.raises(JoinConfigError):
            lean.gathered_output()

    def test_invalid_broadcast_side(self):
        with pytest.raises(ValueError):
            BroadcastJoin("X")

    def test_invalid_track2_direction(self):
        with pytest.raises(ValueError):
            TrackJoin2("XY")

    def test_node_balance_diagnostics(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        result = GraceHashJoin().run(small_cluster, table_r, table_s)
        balance = result.node_balance()
        assert balance["send_skew"] >= 1.0
        assert balance["max_sent"] >= balance["mean_sent"]


class TestJoinSpecValidation:
    @pytest.mark.parametrize("field", ["location_width", "count_width_r", "count_width_s"])
    @pytest.mark.parametrize("value", [-1.0, -2, float("nan"), float("inf"), -float("inf")])
    def test_bad_width_rejected_at_construction(self, field, value):
        with pytest.raises(ValidationError, match=field):
            JoinSpec(**{field: value})

    @pytest.mark.parametrize("field", ["location_width", "count_width_r", "count_width_s"])
    def test_non_numeric_width_rejected(self, field):
        with pytest.raises(ValidationError):
            JoinSpec(**{field: "1"})

    def test_integer_and_zero_widths_stay_legal(self):
        spec = JoinSpec(location_width=1, count_width_r=0, count_width_s=np.float64(2.0))
        assert spec.location_width == 1

    def test_negative_width_no_longer_shrinks_traffic(self):
        """A negative width used to run and report fewer bytes than width 0."""
        cluster = Cluster(4)
        keys = np.arange(2000, dtype=np.int64)
        table_r, table_s = make_tables(cluster, keys, keys)
        zero = TrackJoin4().run(cluster, table_r, table_s, JoinSpec(location_width=0.0))
        assert zero.network_bytes > 0
        with pytest.raises(ValidationError):
            TrackJoin4().run(cluster, table_r, table_s, JoinSpec(location_width=-1.0))


def _counting_operators():
    """Every registry entry plus the rid-based and Bloom-filtered joins."""
    factories = {name: (lambda name=name: create(name)) for name in algorithm_names()}
    factories["LMHJ"] = LateMaterializationHashJoin
    factories["TAHJ"] = TrackingAwareHashJoin
    factories["BF+HJ"] = lambda: SemiJoinFilteredJoin(GraceHashJoin())
    factories["BF+4TJ"] = lambda: SemiJoinFilteredJoin(TrackJoin4())
    return factories


COUNTING_OPERATORS = _counting_operators()


def _count_inputs(kind: str, num_nodes: int):
    if kind == "unique":
        cluster = Cluster(num_nodes)
        keys = np.arange(1200, dtype=np.int64)
        return make_tables(cluster, keys, np.random.default_rng(1).permutation(keys), seed=2)
    wl = hot_key_workload(
        num_nodes=num_nodes, tuples_per_table=600, distinct_keys=80, seed=3
    )
    return wl.table_r, wl.table_s


def _assert_counting_matches(full, lean, num_nodes):
    """Everything but the output payloads agrees between the two runs."""
    assert lean.output is None
    assert full.output is not None
    assert lean.output_rows == full.output_rows
    for attr in ("total_bytes", "local_bytes", "message_count", "retransmit_count"):
        assert getattr(lean.traffic, attr) == getattr(full.traffic, attr), attr
    assert lean.traffic.breakdown() == full.traffic.breakdown()
    assert lean.traffic.by_link == full.traffic.by_link
    assert lean.traffic.retransmit_breakdown() == full.traffic.retransmit_breakdown()
    assert len(lean.profile.steps) == len(full.profile.steps)
    for a, b in zip(lean.profile.steps, full.profile.steps):
        assert (a.name, a.kind, a.rate_class) == (b.name, b.kind, b.rate_class)
        assert np.array_equal(a.per_node_bytes, b.per_node_bytes), a.name
    model = paper_cluster_2014(num_nodes)
    assert model.total_seconds(lean.profile) == model.total_seconds(full.profile)


class TestCountingEqualsMaterializing:
    """``materialize=False`` only skips building the output.

    The materializing run is the oracle: the counting run must report
    the same row count, the same traffic ledger down to each link and
    retransmit class, and the same profile steps and modeled seconds.
    """

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kind", ["unique", "hot"])
    @pytest.mark.parametrize("num_nodes", [1, 3, 8])
    @pytest.mark.parametrize("name", sorted(COUNTING_OPERATORS))
    def test_counting_run_matches(self, name, num_nodes, kind, workers):
        table_r, table_s = _count_inputs(kind, num_nodes)
        results = []
        for materialize in (True, False):
            cluster = Cluster(num_nodes, workers=workers)
            operator = COUNTING_OPERATORS[name]()
            results.append(
                operator.run(cluster, table_r, table_s, JoinSpec(materialize=materialize))
            )
        _assert_counting_matches(*results, num_nodes)

    @pytest.mark.parametrize("name", ["HJ", "BJ-S", "4TJ", "4TJ-shard", "TAHJ", "LMHJ"])
    def test_counting_run_matches_under_faults(self, name):
        plan = FaultPlan(seed=11, drop=0.2, duplicate=0.15, delay=0.1, reorder=0.3)
        rng = np.random.default_rng(5)
        keys_r, keys_s = rng.integers(0, 60, 300), rng.integers(0, 60, 450)
        results = []
        for materialize in (True, False):
            cluster = Cluster(8, fault_plan=plan)
            table_r, table_s = make_tables(cluster, keys_r, keys_s)
            results.append(
                COUNTING_OPERATORS[name]().run(
                    cluster, table_r, table_s, JoinSpec(materialize=materialize)
                )
            )
        assert results[0].traffic.retransmit_bytes > 0
        _assert_counting_matches(*results, 8)
