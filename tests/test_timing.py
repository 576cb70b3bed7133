"""Tests for execution profiles and the hardware timing model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.timing import (
    CPU,
    LOCAL,
    NET,
    ExecutionProfile,
    HardwareModel,
    paper_cluster_2014,
    scaled_network,
)


class TestExecutionProfile:
    def test_steps_accumulate_by_name(self):
        profile = ExecutionProfile(4)
        profile.add_cpu_at("Sort", "sort", 0, 100)
        profile.add_cpu_at("Sort", "sort", 1, 300)
        assert len(profile.steps) == 1
        step = profile.step_named("Sort")
        assert step.total_bytes == 400
        assert step.max_node_bytes == 300

    def test_kinds_are_separate_steps(self):
        profile = ExecutionProfile(2)
        profile.add_cpu_at("X", "sort", 0, 1)
        profile.add_net_at("X", 0, 1)
        assert len(profile.steps) == 2

    def test_shape_validation(self):
        profile = ExecutionProfile(3)
        with pytest.raises(ValueError):
            profile.add_cpu("Bad", "sort", np.zeros(2))

    def test_total_network_bytes(self):
        profile = ExecutionProfile(2)
        profile.add_net_at("T1", 0, 10)
        profile.add_net_at("T2", 1, 30)
        profile.add_cpu_at("C", "sort", 0, 99)
        assert profile.total_network_bytes() == 40

    def test_local_steps(self):
        profile = ExecutionProfile(2)
        step = profile.add_local("Copy", 1, 50)
        assert step.kind == LOCAL
        assert step.rate_class == "copy"


@st.composite
def _profile_rows(draw):
    """A node count and rows of (src, dsts, quarter-byte sizes, step stem)."""
    num_nodes = draw(st.sampled_from([1, 2, 8, 64]))
    node = st.integers(0, num_nodes - 1)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        dsts = draw(st.lists(node, max_size=12))
        rows.append(
            (
                draw(node),
                dsts,
                [draw(st.integers(0, 4000)) / 4 for _ in dsts],
                draw(st.sampled_from(["a", "b"])),
                draw(st.booleans()),
            )
        )
    return num_nodes, rows


class TestRowRecorders:
    @settings(max_examples=60, deadline=None)
    @given(_profile_rows())
    def test_net_rows_match_per_message_reference(self, drawn):
        """Step order and per-node vectors equal a per-message loop's."""
        num_nodes, rows = drawn
        profile = ExecutionProfile(num_nodes)
        reference: dict[tuple[str, str], np.ndarray] = {}
        for src, dsts, sizes, stem, keep_local in rows:
            local_step = f"Local copy {stem}" if keep_local else None
            profile.add_net_row(f"Transfer {stem}", local_step, src, dsts, sizes)
            for dst, nbytes in zip(dsts, sizes):
                if src == dst and local_step is None:
                    continue
                key = (local_step, LOCAL) if src == dst else (f"Transfer {stem}", NET)
                reference.setdefault(key, np.zeros(num_nodes))[src] += nbytes
        assert [(step.name, step.kind) for step in profile.steps] == list(reference)
        for step in profile.steps:
            assert np.array_equal(step.per_node_bytes, reference[(step.name, step.kind)])

    @settings(max_examples=40, deadline=None)
    @given(_profile_rows())
    def test_row_with_sender_array_matches_rows(self, drawn):
        """Flattened rows (``src`` an array) record like one row per sender."""
        num_nodes, rows = drawn
        per_row = ExecutionProfile(num_nodes)
        flat = ExecutionProfile(num_nodes)
        srcs, dsts, sizes = [], [], []
        for src, row_dsts, row_sizes, _stem, _keep in rows:
            per_row.add_net_row("T", "L", src, row_dsts, row_sizes)
            srcs += [src] * len(row_dsts)
            dsts += row_dsts
            sizes += row_sizes
        flat.add_net_row("T", "L", np.array(srcs, dtype=np.int64), dsts, sizes)
        assert [(s.name, s.kind) for s in flat.steps] == [
            (s.name, s.kind) for s in per_row.steps
        ]
        for a, b in zip(flat.steps, per_row.steps):
            assert np.array_equal(a.per_node_bytes, b.per_node_bytes)

    @settings(max_examples=40, deadline=None)
    @given(_profile_rows())
    def test_cpu_nodes_matches_cpu_at_loop(self, drawn):
        num_nodes, rows = drawn
        bulk = ExecutionProfile(num_nodes)
        loop = ExecutionProfile(num_nodes)
        for _src, dsts, sizes, stem, _keep in rows:
            bulk.add_cpu_nodes(f"Merge {stem}", "merge", dsts, sizes)
            for dst, nbytes in zip(dsts, sizes):
                loop.add_cpu_at(f"Merge {stem}", "merge", dst, nbytes)
        assert [s.name for s in bulk.steps] == [s.name for s in loop.steps]
        for a, b in zip(bulk.steps, loop.steps):
            assert np.array_equal(a.per_node_bytes, b.per_node_bytes)

    def test_cpu_steps_equal_cpu_at_sequence(self):
        bulk = ExecutionProfile(3)
        loop = ExecutionProfile(3)
        steps = [("Sort", "sort", 3.75), ("Merge", "merge", 2.0), ("Sort", "sort", 1.0)]
        bulk.add_cpu_steps(2, steps)
        for name, rate_class, nbytes in steps:
            loop.add_cpu_at(name, rate_class, 2, nbytes)
        assert [(s.name, s.per_node_bytes.tolist()) for s in bulk.steps] == [
            (s.name, s.per_node_bytes.tolist()) for s in loop.steps
        ]

    def test_zero_entry_rows_create_no_step(self):
        profile = ExecutionProfile(4)
        profile.add_net_row("T", "L", 1, [], [])
        assert profile.add_cpu_nodes("C", "merge", [], []) is None
        assert profile.steps == []

    def test_all_local_row_is_one_copy_step(self):
        profile = ExecutionProfile(1)
        profile.add_net_row("T", "L", 0, [0, 0], [3.75, 0.25])
        assert [(s.name, s.kind, s.total_bytes) for s in profile.steps] == [
            ("L", LOCAL, 4.0)
        ]


class TestRecorderValidation:
    """Regression: recorders silently charged the last node for ``node=-1``,
    raised a bare IndexError past the cluster, and let NaN reach the model."""

    @pytest.mark.parametrize("node", [-1, 4, 17])
    def test_scalar_recorders_reject_bad_nodes(self, node):
        profile = ExecutionProfile(4)
        with pytest.raises(ValidationError):
            profile.add_cpu_at("C", "sort", node, 1.0)
        with pytest.raises(ValidationError):
            profile.add_net_at("T", node, 1.0)
        with pytest.raises(ValidationError):
            profile.add_local("L", node, 1.0)
        with pytest.raises(ValidationError):
            profile.add_cpu_steps(node, [("C", "sort", 1.0)])
        assert profile.steps == []

    @pytest.mark.parametrize("nbytes", [float("nan"), -1.0, float("inf")])
    def test_scalar_recorders_reject_bad_work(self, nbytes):
        profile = ExecutionProfile(4)
        with pytest.raises(ValidationError):
            profile.add_cpu_at("C", "sort", 0, nbytes)
        with pytest.raises(ValidationError):
            profile.add_net_at("T", 0, nbytes)
        with pytest.raises(ValidationError):
            profile.add_local("L", 0, nbytes)
        with pytest.raises(ValidationError):
            profile.add_cpu_steps(0, [("A", "sort", 1.0), ("C", "sort", nbytes)])
        with pytest.raises(ValidationError):
            profile.add_cpu("C", "sort", [0.0, nbytes, 0.0, 0.0])
        with pytest.raises(ValidationError):
            profile.add_net("T", [0.0, 0.0, nbytes, 0.0])
        # A rejected call records nothing, not even its valid entries.
        assert profile.steps == []

    @pytest.mark.parametrize(
        "src, dsts, nbytes",
        [
            (0, [1, -1], [1.0, 1.0]),
            (0, [4], [1.0]),
            (-1, [1], [1.0]),
            (np.array([0, 5]), [1, 2], [1.0, 1.0]),
            (0, [1, 2], [1.0, float("nan")]),
            (0, [1], [-0.5]),
            (0, [1, 2], [1.0]),
        ],
    )
    def test_row_recorders_reject_bad_entries(self, src, dsts, nbytes):
        profile = ExecutionProfile(4)
        with pytest.raises(ValidationError):
            profile.add_net_row("T", "L", src, dsts, nbytes)
        assert profile.steps == []

    @pytest.mark.parametrize(
        "nodes, nbytes",
        [
            ([1, -1], [1.0, 1.0]),
            ([4], [1.0]),
            ([1, 2], [1.0, float("nan")]),
            ([1], [-0.5]),
            ([1, 2], [1.0]),
        ],
    )
    def test_cpu_nodes_rejects_bad_entries(self, nodes, nbytes):
        profile = ExecutionProfile(4)
        with pytest.raises(ValidationError):
            profile.add_cpu_nodes("C", "merge", nodes, nbytes)
        assert profile.steps == []

    def test_model_never_sees_nan(self):
        profile = ExecutionProfile(2)
        with pytest.raises(ValidationError):
            profile.add_net_at("T", 1, float("nan"))
        assert paper_cluster_2014(2).total_seconds(profile) == 0.0


class TestHardwareModel:
    def test_network_time_uses_total_bytes(self):
        model = HardwareModel(num_nodes=4, net_aggregate_bandwidth=100.0, cpu_rates={})
        profile = ExecutionProfile(4)
        profile.add_net("Transfer", [100, 100, 100, 100])
        assert model.network_seconds(profile) == pytest.approx(4.0)

    def test_cpu_time_uses_max_node(self):
        model = HardwareModel(4, 1.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(4)
        profile.add_cpu("Sort", "sort", [10, 40, 20, 10])
        assert model.cpu_seconds(profile) == pytest.approx(4.0)

    def test_unknown_rate_class(self):
        model = HardwareModel(2, 1.0, cpu_rates={})
        profile = ExecutionProfile(2)
        profile.add_cpu("Weird", "weird", [1, 1])
        with pytest.raises(KeyError):
            model.cpu_seconds(profile)

    def test_local_copies_count_as_cpu(self):
        model = HardwareModel(2, 1.0, cpu_rates={"copy": 5.0})
        profile = ExecutionProfile(2)
        profile.add_local("Copy", 0, 10)
        assert model.cpu_seconds(profile) == pytest.approx(2.0)
        assert model.network_seconds(profile) == 0.0

    def test_paper_preset_reproduces_hash_join_transfer(self):
        """Sanity anchor: 6.35 GB of remote R tuples ~ 29.5 s (Table 3)."""
        model = paper_cluster_2014(4)
        profile = ExecutionProfile(4)
        profile.add_net("Transfer R tuples", [6.35e9 / 4] * 4)
        assert model.network_seconds(profile) == pytest.approx(29.5, rel=0.05)

    def test_scaled_network(self):
        base = paper_cluster_2014(4)
        fast = scaled_network(base, 10.0)
        assert fast.net_aggregate_bandwidth == pytest.approx(
            10 * base.net_aggregate_bandwidth
        )
        assert fast.cpu_rates == base.cpu_rates

    def test_total_seconds_depipelined_vs_overlapped(self):
        model = HardwareModel(2, 10.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(2)
        profile.add_cpu("Sort", "sort", [30, 10])
        profile.add_net("Transfer", [20, 20])
        assert model.total_seconds(profile) == pytest.approx(3.0 + 4.0)
        assert model.total_seconds(profile, overlap=True) == pytest.approx(4.0)

    def test_overlap_bounded_by_depipelined(self):
        model = paper_cluster_2014(4)
        profile = ExecutionProfile(4)
        profile.add_cpu("Sort", "sort", [1e9] * 4)
        profile.add_net("Transfer", [1e8] * 4)
        assert model.total_seconds(profile, overlap=True) <= model.total_seconds(profile)

    def test_step_timings_in_order(self):
        model = HardwareModel(2, 10.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(2)
        profile.add_cpu_at("A", "sort", 0, 10)
        profile.add_net_at("B", 0, 10)
        timings = model.step_timings(profile)
        assert [t.name for t in timings] == ["A", "B"]
        assert timings[0].kind == CPU and timings[1].kind == NET


class TestBottleneckSeconds:
    def test_busiest_link_drives_makespan(self):
        from repro.cluster.network import Message, MessageClass, TrafficLedger
        from repro.timing import bottleneck_seconds

        ledger = TrafficLedger()
        ledger.record(Message(0, 1, MessageClass.R_TUPLES, 100.0, None))
        ledger.record(Message(0, 2, MessageClass.R_TUPLES, 40.0, None))
        assert bottleneck_seconds(ledger, per_link_bandwidth=10.0) == pytest.approx(10.0)

    def test_empty_ledger(self):
        from repro.cluster.network import TrafficLedger
        from repro.timing import bottleneck_seconds

        assert bottleneck_seconds(TrafficLedger(), 1.0) == 0.0

    def test_invalid_bandwidth(self):
        from repro.cluster.network import TrafficLedger
        from repro.timing import bottleneck_seconds

        with pytest.raises(ValueError):
            bottleneck_seconds(TrafficLedger(), 0.0)

    def test_balanced_schedule_lower_makespan(self):
        """The balance-aware scheduler can lower the link makespan even
        at equal total traffic."""
        import numpy as np

        from repro import Cluster, JoinSpec, Schema, TrackJoin4
        from repro.core.balance import BalanceAwareTrackJoin
        from repro.timing import bottleneck_seconds
        from repro.testing import scatter_tables

        cluster = Cluster(6)
        rng = np.random.default_rng(3)
        keys = np.repeat(np.arange(300, dtype=np.int64), 4)
        schema = Schema.with_widths(32, 128)
        nodes_r = rng.integers(0, 6, len(keys))
        nodes_s = np.where(rng.random(len(keys)) < 0.7, 0, rng.integers(0, 6, len(keys)))
        table_r = cluster.table_from_assignment("R", schema, keys, nodes_r)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes_s)
        optimal = TrackJoin4().run(cluster, table_r, table_s)
        balanced = BalanceAwareTrackJoin().run(cluster, table_r, table_s)
        assert bottleneck_seconds(balanced.traffic, 1.0) <= bottleneck_seconds(
            optimal.traffic, 1.0
        ) * 1.05
