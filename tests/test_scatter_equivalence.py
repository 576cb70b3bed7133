"""Differential checks of the scatter-heavy paths against independent oracles.

Every distributed operator is compared with
:func:`repro.testing.reference_join`, a brute-force dictionary join that
shares no code with the library's kernels: the output multiset must
equal the oracle's rows under ``materialize=True`` and the counted
cardinality must equal its row count under ``materialize=False``.  The
traffic ledger must not depend on the mode (materialization or worker
count).  Vectorized schedule generation is checked per key against the
scalar :func:`~repro.core.schedule.optimal_schedule` routines, and the
``split_by``/``hash_split`` primitives against per-bucket boolean masks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Cluster, GraceHashJoin, TrackJoin4
from repro.core.schedule import (
    BroadcastPlan,
    both_direction_plans,
    generate_schedules,
    migrate_and_broadcast,
    optimal_schedule,
    selective_broadcast_cost,
)
from repro.core.tracking import TrackingTable
from repro.joins.base import JoinSpec
from repro.joins.registry import algorithm_names, create
from repro.joins.semijoin import SemiJoinFilteredJoin
from repro.joins.tracking_aware import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.storage.table import LocalPartition
from repro.testing import reference_join
from repro.util import hash_partition, segment_boundaries
from repro.workloads.synthetic import hot_key_workload, unique_keys_workload

from conftest import canonical_output, make_tables

#: Every registry entry plus the rid-based and Bloom-filtered operators.
ALGORITHMS = tuple((name, lambda name=name: create(name)) for name in algorithm_names()) + (
    ("LMHJ", LateMaterializationHashJoin),
    ("TAHJ", TrackingAwareHashJoin),
    ("BF+HJ", lambda: SemiJoinFilteredJoin(GraceHashJoin())),
    ("BF+4TJ", lambda: SemiJoinFilteredJoin(TrackJoin4())),
)


def ledger(result):
    return result.traffic.by_class, result.traffic.by_link, result.traffic.local_bytes


def assert_matches_oracle(cluster, table_r, table_s, worker_counts, context):
    """Every operator, both materialization modes, against the oracle."""
    expected = reference_join(table_r, table_s)
    for label, factory in ALGORITHMS:
        reference_ledger = None
        for workers in worker_counts:
            cluster.set_workers(workers)
            try:
                full = factory().run(cluster, table_r, table_s, JoinSpec(materialize=True))
                counted = factory().run(
                    cluster, table_r, table_s, JoinSpec(materialize=False)
                )
            finally:
                cluster.set_workers(1)
            where = f"{label} {context} workers={workers}"
            rows = canonical_output(full)
            assert rows.shape == expected.shape, where
            assert np.array_equal(rows, expected), where
            assert counted.output_rows == expected.shape[1], where
            for result in (full, counted):
                if reference_ledger is None:
                    reference_ledger = ledger(result)
                assert ledger(result) == reference_ledger, where


@st.composite
def join_instance(draw):
    num_nodes = draw(st.integers(2, 6))
    keys_r = draw(st.lists(st.integers(0, 40), min_size=0, max_size=120))
    keys_s = draw(st.lists(st.integers(0, 40), min_size=0, max_size=120))
    # A wide stride makes the key span too sparse for direct addressing,
    # so the sorted probe paths run too.
    stride = draw(st.sampled_from([1, 1_000_003]))
    seed = draw(st.integers(0, 1000))
    return num_nodes, [k * stride for k in keys_r], [k * stride for k in keys_s], seed


class TestJoinEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(join_instance())
    def test_all_algorithms_identical_across_modes(self, instance):
        """Random duplicate-heavy, dense or sparse inputs (and empty sides)."""
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster,
            np.array(keys_r, dtype=np.int64),
            np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        assert_matches_oracle(cluster, table_r, table_s, (1,), f"N={num_nodes}")

    def test_rid_joins_identical_across_modes(self):
        """Unique, hot-key and sparse duplicate-key inputs at N in {1, 2, 8},
        serial and threaded."""
        rng = np.random.default_rng(5)
        for num_nodes in (1, 2, 8):
            cases = [
                unique_keys_workload(num_nodes=num_nodes, scaled_tuples=240, seed=1),
                hot_key_workload(
                    num_nodes=num_nodes, tuples_per_table=300, distinct_keys=30, seed=2
                ),
            ]
            inputs = [
                (w.name, w.cluster, w.table_r, w.table_s) for w in cases
            ]
            # Keys too sparse for direct addressing, with duplicates on
            # both sides: the general sorted probe's expansion.
            cluster = Cluster(num_nodes)
            inputs.append(
                (
                    "sparse",
                    cluster,
                    *make_tables(
                        cluster,
                        rng.integers(0, 60, 300) * 1_000_003,
                        rng.integers(0, 60, 300) * 1_000_003,
                        seed=num_nodes,
                    ),
                )
            )
            for name, cluster, table_r, table_s in inputs:
                assert_matches_oracle(
                    cluster, table_r, table_s, (1, 4), f"{name} N={num_nodes}"
                )

    def test_reference_join_is_a_cartesian_product_per_key(self):
        cluster = Cluster(2)
        table_r, table_s = make_tables(
            cluster, np.array([5, 5, 7, 9]), np.array([5, 7, 7, 8]), seed=3
        )
        rows = reference_join(table_r, table_s)
        assert rows.shape == (3, 4)
        assert sorted(rows[0].tolist()) == [5, 5, 7, 7]
        empty = make_tables(cluster, np.array([1]), np.array([2]))
        assert reference_join(*empty).shape == (3, 0)


@st.composite
def tracking_instance(draw):
    """A random tracking table: per-key per-node sizes for both sides."""
    num_nodes = draw(st.integers(2, 6))
    num_keys = draw(st.integers(1, 12))
    keys, nodes, size_r, size_s = [], [], [], []
    for key in range(num_keys):
        holders = draw(
            st.lists(
                st.integers(0, num_nodes - 1), min_size=1, max_size=num_nodes, unique=True
            )
        )
        for node in sorted(holders):
            keys.append(key)
            nodes.append(node)
            size_r.append(float(draw(st.integers(0, 50))))
            size_s.append(float(draw(st.integers(0, 50))))
    t_nodes = [draw(st.integers(0, num_nodes - 1)) for _ in range(num_keys)]
    keys = np.array(keys, dtype=np.int64)
    return TrackingTable(
        keys=keys,
        nodes=np.array(nodes, dtype=np.int64),
        size_r=np.array(size_r),
        size_s=np.array(size_s),
        key_starts=segment_boundaries(keys),
        t_nodes=np.array(t_nodes, dtype=np.int64),
    )


def assert_schedules_match_scalar(tracking, location_width, allow_migration):
    """Vectorized plans equal the scalar routines key by key, exactly.

    Integer sizes and dyadic location widths keep every cost exact in
    float64, so costs, directions, migrations and destinations must
    agree bit for bit however the two forms order their operations.
    """
    schedules = generate_schedules(tracking, location_width, allow_migration)
    plans = both_direction_plans(tracking, location_width, allow_migration)
    bounds = np.append(tracking.key_starts, tracking.num_entries)
    for key in range(len(tracking.key_starts)):
        entries = np.arange(bounds[key], bounds[key + 1])
        nodes = tracking.nodes[entries].tolist()
        sizes_r = dict(zip(nodes, tracking.size_r[entries].tolist()))
        sizes_s = dict(zip(nodes, tracking.size_s[entries].tolist()))
        t_node = int(tracking.t_nodes[key])
        if allow_migration:
            scalar = {
                "RS": migrate_and_broadcast(sizes_r, sizes_s, t_node, location_width),
                "SR": migrate_and_broadcast(sizes_s, sizes_r, t_node, location_width),
            }
        else:
            scalar = {
                "RS": plain_plan(sizes_r, sizes_s, t_node, location_width),
                "SR": plain_plan(sizes_s, sizes_r, t_node, location_width),
            }
        for direction, (cost, migrate, dest) in zip(("RS", "SR"), plans):
            plan = scalar[direction]
            assert cost[key] == plan.cost, (key, direction)
            moved = {nodes[i] for i in np.flatnonzero(migrate[entries])}
            assert moved == set(plan.migrating_nodes), (key, direction)
            expected_dest = -1 if plan.destination is None else plan.destination
            assert dest[key] == expected_dest, (key, direction)
        # Ties resolve to S -> R on both sides (strict ``RScost < SRcost``).
        chosen = "RS" if scalar["RS"].cost < scalar["SR"].cost else "SR"
        assert bool(schedules.direction_rs[key]) == (chosen == "RS"), key
        assert schedules.cost[key] == scalar[chosen].cost, key
        moved = {nodes[i] for i in np.flatnonzero(schedules.migrate[entries])}
        assert moved == set(scalar[chosen].migrating_nodes), key
        if allow_migration:
            assert optimal_schedule(sizes_r, sizes_s, t_node, location_width).direction == chosen


def plain_plan(broadcast_sizes, target_sizes, t_node, location_width):
    """The no-migration (3-phase) plan of one direction."""
    return BroadcastPlan(
        cost=selective_broadcast_cost(broadcast_sizes, target_sizes, t_node, location_width),
        migration_cost=0.0,
        migrating_nodes=(),
        destination=None,
    )


dyadic_widths = st.integers(0, 32).map(lambda quarters: quarters / 4)


class TestScheduleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(tracking_instance(), dyadic_widths, st.booleans())
    def test_generate_schedules_bitwise_identical(
        self, tracking, location_width, allow_migration
    ):
        """Generic (any entries per key) costing equals the scalar oracle."""
        assert_schedules_match_scalar(tracking, location_width, allow_migration)

    def test_paired_shape_exercises_blocked_path(self):
        """All-pairs tables (<=2 entries/key) hit the blocked paired path.

        Deterministic coverage of `_both_direction_costs_paired`: the
        dominant one-R-holder/one-S-holder shape, including single-entry
        keys, local pairs (same node both sides), and keys whose T node
        coincides with a holder, checked per key against the scalar
        oracle.
        """
        num_nodes = 4
        rng = np.random.default_rng(7)
        num_keys = 300
        entries_per_key = rng.integers(1, 3, num_keys)  # 1 or 2, never more
        keys, nodes, size_r, size_s = [], [], [], []
        for key in range(num_keys):
            holders = rng.choice(num_nodes, size=entries_per_key[key], replace=False)
            for node in sorted(holders):
                keys.append(key)
                nodes.append(node)
                size_r.append(float(rng.integers(0, 60)))
                size_s.append(float(rng.integers(0, 60)))
        keys = np.array(keys, dtype=np.int64)
        tracking = TrackingTable(
            keys=keys,
            nodes=np.array(nodes, dtype=np.int64),
            size_r=np.array(size_r),
            size_s=np.array(size_s),
            key_starts=segment_boundaries(keys),
            t_nodes=rng.integers(0, num_nodes, num_keys),
        )
        for location_width in (0.0, 1.0, 3.75):
            for allow_migration in (False, True):
                assert_schedules_match_scalar(tracking, location_width, allow_migration)


@st.composite
def partition_instance(draw):
    n = draw(st.integers(0, 200))
    keys = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    part = LocalPartition(
        keys=np.array(keys, dtype=np.int64),
        columns={"rid": np.arange(n, dtype=np.int64)},
    )
    num_buckets = draw(st.integers(1, 8))
    destinations = np.array(
        draw(st.lists(st.integers(0, num_buckets - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return part, destinations, num_buckets


def assert_buckets_match_masks(part, buckets, destinations, num_buckets, key_sorted=False):
    """Bucket ``b`` holds exactly the rows routed to ``b``.

    Rows keep their partition order, or — with ``key_sorted`` — are
    stably ordered by key.
    """
    assert len(buckets) == num_buckets
    for bucket, batch in enumerate(buckets):
        rows = np.flatnonzero(destinations == bucket)
        if len(rows) == 0:
            assert batch is None
            continue
        if key_sorted:
            rows = rows[np.argsort(part.keys[rows], kind="stable")]
        assert np.array_equal(batch.keys, part.keys[rows])
        assert np.array_equal(batch.columns["rid"], part.columns["rid"][rows])


class TestSplitPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(partition_instance())
    def test_split_by_identical_rows_and_order(self, instance):
        """split_by buckets equal a boolean-mask selection per bucket."""
        part, destinations, num_buckets = instance
        buckets = part.split_by(destinations, num_buckets)
        assert_buckets_match_masks(part, buckets, destinations, num_buckets)

    @settings(max_examples=40, deadline=None)
    @given(partition_instance(), st.integers(0, 3))
    def test_hash_split_same_multiset_per_bucket(self, instance, seed):
        """hash_split routes every row to its key's hash bucket, key-sorted."""
        part, _destinations, num_buckets = instance
        buckets = part.hash_split(num_buckets, seed)
        destinations = hash_partition(part.keys, num_buckets, seed)
        assert_buckets_match_masks(
            part, buckets, destinations, num_buckets, key_sorted=True
        )
