"""The track join operators: 2-phase, 3-phase, and 4-phase variants.

All three share the same skeleton, faithful to Section 2:

1. **Tracking** — project both inputs to their join keys, deduplicate
   locally, and ship (key [, count]) entries to each key's scheduling
   node (:mod:`repro.core.tracking`).
2. **Scheduling** — the scheduling nodes generate a transfer plan per
   distinct key (:mod:`repro.core.schedule`): a fixed selective
   broadcast direction (2-phase), the cheaper direction per key
   (3-phase), or the cheaper *optimized* direction with migrations
   (4-phase).
3. **Migration** (4-phase only) — nodes told to consolidate move their
   matching tuples of the broadcast-target side to the designated
   destination.
4. **Selective broadcast** — scheduling nodes send (key, destination)
   location messages to the broadcast-side holders, which ship their
   matching tuples only to nodes with matches; each destination joins
   the received tuples against its (post-migration) local fragment.

The executor moves real numpy-backed tuple batches through the
simulated network, so output correctness and byte-exact traffic both
fall out of the same run.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..errors import ValidationError
from ..exchange.gather import absorb_received
from ..exchange.locations import LocationExchange
from ..exchange.migrate import Migrate, ShardedMigrate
from ..exchange.selective import SelectiveBroadcast
from ..fastpath import fused_enabled
from ..joins.base import DistributedJoin, JoinSpec
from ..joins.local import local_join
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import segment_ids, segmented_cartesian
from .schedule import ScheduleSet, generate_schedules
from .tracking import run_tracking_phase

__all__ = ["TrackJoin2", "TrackJoin3", "TrackJoin4"]


class _TrackJoinBase(DistributedJoin):
    """Shared tracking/scheduling/broadcast skeleton of all variants."""

    #: 3/4-phase tracking carries per-node match counts.
    with_counts: bool = True
    #: 4-phase adds the migration optimization.
    allow_migration: bool = True
    #: 2-phase pins every key to one direction ("RS" or "SR").
    forced_direction: str | None = None

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition]:
        tracking = run_tracking_phase(
            cluster, table_r, table_s, spec, profile, with_counts=self.with_counts
        )
        key_width = table_r.schema.key_width(spec.encoding)
        # The per-entry segment ids are needed by schedule generation and
        # execution alike; expand them once and thread them through.
        seg = segment_ids(tracking.key_starts, tracking.num_entries)
        if tracking.num_entries:
            # Schedule generation happens at the T nodes; its work is
            # linear in the number of tracked (key, node) entries.
            entry_footprint = key_width + spec.location_width + spec.count_width_r
            if fused_enabled() and float(entry_footprint).is_integer():
                # count x width: exact for integer widths, and avoids
                # both the per-entry t-node gather and the constant
                # weights array.
                entries_per_key = np.diff(
                    np.append(tracking.key_starts, tracking.num_entries)
                )
                per_tnode = (
                    np.bincount(
                        tracking.t_nodes,
                        weights=entries_per_key.astype(np.float64),
                        minlength=cluster.num_nodes,
                    )
                    * entry_footprint
                )
            else:
                per_tnode = np.bincount(
                    tracking.t_nodes[seg],
                    weights=np.full(tracking.num_entries, entry_footprint),
                    minlength=cluster.num_nodes,
                )
            profile.add_cpu(
                "Generate schedules and partition by node", "schedule", per_tnode
            )
        # The paper's scheduling pseudocode treats M as the size of one
        # whole location message ("logically seen as key and node pairs,
        # have size equal to M"), so schedules are generated with the
        # full wire width of a (key, node) pair — keeping migration
        # decisions consistent with the bytes actually sent.
        schedules = self._make_schedules(
            cluster, tracking, spec, key_width + spec.location_width, seg
        )
        return _execute_schedules(
            cluster, table_r, table_s, spec, profile, schedules, seg=seg
        )

    def _make_schedules(
        self,
        cluster: Cluster,
        tracking,
        spec: JoinSpec,
        location_width: float,
        seg: np.ndarray,
    ) -> ScheduleSet:
        """Schedule-generation hook.

        The base operators take the traffic-optimal plan; policy
        subclasses (:mod:`repro.core.balance`, :mod:`repro.core.skew`)
        override only this method to re-pick destinations from the same
        shared candidate evaluation.
        """
        return generate_schedules(
            tracking,
            location_width=location_width,
            allow_migration=self.allow_migration,
            forced_direction=self.forced_direction,
            seg=seg,
        )


class TrackJoin2(_TrackJoinBase):
    """2-phase (single broadcast) track join.

    Tracks bare key locations, then selectively broadcasts one side's
    tuples to the other side's locations.  The direction is a query
    optimizer decision taken before execution, like the inner/outer
    distinction of hash join.
    """

    with_counts = False
    allow_migration = False

    def __init__(self, direction: str = "RS"):
        if direction not in ("RS", "SR"):
            raise ValidationError(f"direction must be 'RS' or 'SR', got {direction!r}")
        self.forced_direction = direction
        self.name = "2TJ-R" if direction == "RS" else "2TJ-S"


class TrackJoin3(_TrackJoinBase):
    """3-phase (double broadcast) track join.

    Tracking carries per-node match sizes, and the cheaper selective
    broadcast direction is chosen independently for every distinct key.
    """

    name = "3TJ"
    allow_migration = False


class TrackJoin4(_TrackJoinBase):
    """4-phase (full) track join.

    Adds the migration phase: per key, tuples of the broadcast-target
    side are consolidated onto fewer nodes whenever that lowers total
    traffic, producing the minimum possible payload transfers for an
    early-materialized distributed join (Theorems 1-2).
    """

    name = "4TJ"


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------


def _execute_schedules(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec,
    profile: ExecutionProfile,
    sched: ScheduleSet,
    seg: np.ndarray | None = None,
) -> list[LocalPartition]:
    """Run migrations, selective broadcasts, and final local joins."""
    num_nodes = cluster.num_nodes
    tracking = sched.tracking
    key_width = table_r.schema.key_width(spec.encoding)
    widths = {
        "R": table_r.schema.tuple_width(spec.encoding),
        "S": table_s.schema.tuple_width(spec.encoding),
    }
    categories = {"R": MessageClass.R_TUPLES, "S": MessageClass.S_TUPLES}
    work: dict[str, list[LocalPartition]] = {
        "R": list(table_r.partitions),
        "S": list(table_s.partitions),
    }
    out_names = tuple("r." + n for n in table_r.payload_names) + tuple(
        "s." + n for n in table_s.payload_names
    )
    out_width = widths["R"] + table_s.schema.payload_width(spec.encoding)

    if tracking.num_entries == 0:
        return [LocalPartition.empty(out_names) for _ in range(num_nodes)]

    if seg is None:
        seg = segment_ids(tracking.key_starts, tracking.num_entries)
    entry_dir_rs = sched.direction_rs[seg]
    entry_dir_sr = ~entry_dir_rs
    has_r = tracking.size_r > 0
    has_s = tracking.size_s > 0
    # Heavy-hitter sharding: per-entry marker of sharded keys, or None —
    # with no shards every code path below is identical to the plain
    # single-destination plan, byte for byte.
    sh_entry = sched.sharded[seg] if sched.has_shards else None

    # ---- Phase A: migrations (4-phase only; sched.migrate is all-False
    # otherwise).  For RS keys the S side consolidates, for SR keys R.
    # The two directions touch disjoint holder lists (work["S"] vs
    # work["R"]) and neither reads the other's sends, so a pipelined
    # window may fuse them under one barrier.  Sharded keys consolidate
    # separately: every target-side holder deals its rows across the
    # key's shard destinations (their ``sched.migrate`` bits are clear,
    # so the plain migration pass never touches them).
    with cluster.pipelined_phases():
        for side, entry_mask in (
            ("S", sched.migrate & entry_dir_rs),
            ("R", sched.migrate & entry_dir_sr),
        ):
            _run_migrations(
                cluster, spec, profile, tracking, seg, sched, side, entry_mask,
                work, widths, key_width,
            )
        if sh_entry is not None:
            for side, entry_mask in (
                ("S", sh_entry & entry_dir_rs & has_s),
                ("R", sh_entry & entry_dir_sr & has_r),
            ):
                _run_shard_migrations(
                    cluster, spec, profile, tracking, seg, sched, side,
                    entry_mask, work, widths, key_width,
                )
    # Consolidation barrier: moved tuples join their destination's local
    # fragment before the selective broadcasts run against it.
    absorb_received(
        cluster,
        {MessageClass.R_TUPLES: work["R"], MessageClass.S_TUPLES: work["S"]},
    )

    # ---- Phase B: location messages + selective broadcasts.  The two
    # directions read only coordinator state (tracking/schedules) and
    # their side's consolidated fragments — never each other's sends —
    # so a pipelined window may overlap one direction's broadcast with
    # the other's translation work.  Location messages are coordinator
    # sends and keep immediate semantics either way.
    not_migrating = ~sched.migrate
    with cluster.pipelined_phases():
        for b_side, t_side, key_is_this_dir in (
            ("R", "S", entry_dir_rs),
            ("S", "R", entry_dir_sr),
        ):
            has_b = has_r if b_side == "R" else has_s
            has_t = has_s if b_side == "R" else has_r
            b_mask = key_is_this_dir & has_b
            d_mask = key_is_this_dir & has_t & not_migrating
            if sh_entry is not None:
                # Sharded keys broadcast to their shard destinations
                # instead of the tracked target entries (whose tuples
                # were dealt away in Phase A).
                b_mask = b_mask & ~sh_entry
                d_mask = d_mask & ~sh_entry
            b_idx = np.flatnonzero(b_mask)
            d_idx = np.flatnonzero(d_mask)
            if len(b_idx) and len(d_idx):
                seg_b = seg[b_idx]
                ia, ib = segmented_cartesian(seg_b, seg[d_idx])
                pair_src = tracking.nodes[b_idx][ia]
                pair_dst = tracking.nodes[d_idx][ib]
                pair_key = tracking.keys[b_idx][ia]
                pair_t = tracking.t_nodes[seg_b][ia]
            else:
                empty = np.empty(0, dtype=np.int64)
                pair_src = pair_dst = pair_key = pair_t = empty
            if sh_entry is not None:
                # Each broadcast-side holder of a sharded key replicates
                # its tuples to *every* shard, so each of the dealt
                # target rows meets each matching broadcast row exactly
                # once.
                sb_idx = np.flatnonzero(key_is_this_dir & has_b & sh_entry)
                if len(sb_idx):
                    sb_seg = seg[sb_idx]
                    off = sched.shard_offsets
                    counts = (off[sb_seg + 1] - off[sb_seg]).astype(np.int64)
                    rep = np.repeat(np.arange(len(sb_idx)), counts)
                    within = np.arange(int(counts.sum())) - np.repeat(
                        np.cumsum(counts) - counts, counts
                    )
                    dests = sched.shard_dests[np.repeat(off[sb_seg], counts) + within]
                    pair_src = np.concatenate([pair_src, tracking.nodes[sb_idx][rep]])
                    pair_dst = np.concatenate([pair_dst, dests])
                    pair_key = np.concatenate([pair_key, tracking.keys[sb_idx][rep]])
                    pair_t = np.concatenate([pair_t, tracking.t_nodes[sb_seg][rep]])
            if len(pair_src) == 0:
                continue
            _locations(spec, key_width, f"Tran. {b_side} → {t_side} keys, nodes").run(
                cluster, profile, pair_t, pair_src, pair_dst
            )
            SelectiveBroadcast(
                category=categories[b_side],
                width=widths[b_side],
                match_width=key_width + spec.location_width,
                transfer_step=f"Transfer {b_side} → {t_side} tuples",
                copy_step=f"Local copy {b_side} → {t_side} tuples",
                translate_step=(
                    f"Merge-join {b_side} → {t_side} keys, nodes ⇒ payloads "
                    "and partition by node"
                ),
            ).run(cluster, profile, work[b_side], pair_src, pair_dst, pair_key)

    # ---- Phase C: final local joins at every destination.
    def join_node(node: int) -> LocalPartition:
        received: dict[str, list[LocalPartition]] = {"R": [], "S": []}
        for msg in cluster.network.deliver(node):
            if msg.category is MessageClass.R_TUPLES:
                received["R"].append(msg.payload)
            elif msg.category is MessageClass.S_TUPLES:
                received["S"].append(msg.payload)
        parts: list[LocalPartition] = []
        cpu_steps: list[tuple[str, str, float]] = []
        if received["R"]:
            batch = LocalPartition.concat(received["R"])
            joined = local_join(batch, work["S"][node], "r.", "s.")
            cpu_steps += [
                ("Merge rec. R → S tuples", "sort", batch.num_rows * widths["R"]),
                (
                    "Final merge-join R → S",
                    "merge",
                    batch.num_rows * widths["R"]
                    + work["S"][node].num_rows * widths["S"]
                    + joined.num_rows * out_width,
                ),
            ]
            parts.append(joined)
        if received["S"]:
            batch = LocalPartition.concat(received["S"])
            joined = local_join(work["R"][node], batch, "r.", "s.")
            cpu_steps += [
                ("Merge rec. S → R tuples", "sort", batch.num_rows * widths["S"]),
                (
                    "Final merge-join S → R",
                    "merge",
                    batch.num_rows * widths["S"]
                    + work["R"][node].num_rows * widths["R"]
                    + joined.num_rows * out_width,
                ),
            ]
            parts.append(joined)
        profile.add_cpu_steps(node, cpu_steps)
        if parts:
            return LocalPartition.concat(parts)
        return LocalPartition.empty(out_names)

    return cluster.run_phase(join_node, profile=profile)


def _locations(spec: JoinSpec, key_width: float, step: str) -> LocationExchange:
    """The (key, node) instruction exchange under this join's encodings."""
    return LocationExchange(
        step=step,
        key_width=key_width,
        location_width=spec.location_width,
        group_by_node=spec.group_locations,
    )


def _run_migrations(
    cluster: Cluster,
    spec: JoinSpec,
    profile: ExecutionProfile,
    tracking,
    seg: np.ndarray,
    sched: ScheduleSet,
    side: str,
    entry_mask: np.ndarray,
    work: dict[str, list[LocalPartition]],
    widths: dict[str, float],
    key_width: float,
) -> None:
    """Send migration instructions and move the designated tuples."""
    idx = np.flatnonzero(entry_mask)
    if len(idx) == 0:
        return
    mig_keys = tracking.keys[idx]
    mig_nodes = tracking.nodes[idx]
    mig_dest = sched.dest_node[seg[idx]]
    mig_t = tracking.t_nodes[seg[idx]]

    # Migration instructions: (key, destination) from the scheduler to
    # each migrating holder.  Accounted under the direction that uses
    # them ("Tran. R -> S keys, nodes" when S consolidates, since those
    # messages enable the R -> S broadcast, and vice versa).
    other = "R" if side == "S" else "S"
    _locations(spec, key_width, f"Tran. {other} → {side} keys, nodes").run(
        cluster, profile, mig_t, mig_nodes, mig_dest
    )

    Migrate(
        category=MessageClass.R_TUPLES if side == "R" else MessageClass.S_TUPLES,
        width=widths[side],
        transfer_step=f"Transfer {side} → {other} tuples",
        copy_step=f"Local copy {side} tuples ({side} migration)",
    ).run(cluster, profile, work[side], mig_keys, mig_nodes, mig_dest)


def _run_shard_migrations(
    cluster: Cluster,
    spec: JoinSpec,
    profile: ExecutionProfile,
    tracking,
    seg: np.ndarray,
    sched: ScheduleSet,
    side: str,
    entry_mask: np.ndarray,
    work: dict[str, list[LocalPartition]],
    widths: dict[str, float],
    key_width: float,
) -> None:
    """Instruct hot keys' target-side holders to deal across the shards.

    The sharded analogue of :func:`_run_migrations`: every target-side
    holder of a sharded key receives one (key, destination) instruction
    per shard, then deals its matching tuples cyclically over that list
    (:class:`~repro.exchange.migrate.ShardedMigrate`).
    """
    idx = np.flatnonzero(entry_mask)
    if len(idx) == 0:
        return
    entry_key = seg[idx]
    off = sched.shard_offsets
    counts = (off[entry_key + 1] - off[entry_key]).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
    flat = sched.shard_dests[np.repeat(off[entry_key], counts) + within]

    # Shard instructions: one (key, destination) message per
    # (holder, shard) pair, accounted like migration instructions.
    rep = np.repeat(np.arange(len(idx)), counts)
    other = "R" if side == "S" else "S"
    _locations(spec, key_width, f"Tran. {other} → {side} keys, nodes").run(
        cluster, profile, tracking.t_nodes[entry_key][rep],
        tracking.nodes[idx][rep], flat,
    )

    ShardedMigrate(
        category=MessageClass.R_TUPLES if side == "R" else MessageClass.S_TUPLES,
        width=widths[side],
        transfer_step=f"Transfer {side} → {other} tuples",
        copy_step=f"Local copy {side} tuples ({side} migration)",
    ).run(
        cluster, profile, work[side], tracking.keys[idx], tracking.nodes[idx],
        offsets, flat,
    )
