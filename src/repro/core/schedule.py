"""Per-key transfer schedule generation (Sections 2.2-2.3 of the paper).

Track join logically decomposes the join into one cartesian-product join
per distinct key and minimizes each key's network cost independently.
This module implements that optimization twice:

* A **scalar** form (:func:`selective_broadcast_cost`,
  :func:`migrate_and_broadcast`, :func:`optimal_schedule`) that mirrors
  the paper's pseudocode line by line.  It reproduces the worked
  examples of Figures 1 and 2 exactly and is the oracle for property
  tests against brute-force enumeration.

* A **vectorized** form (:func:`generate_schedules`) operating on a full
  :class:`~repro.core.tracking.TrackingTable` with segmented numpy
  reductions, which is what the join operators execute.  Python-level
  loops over millions of keys would dominate runtime otherwise.

Terminology: for the ``R -> S`` direction, R tuples are *selectively
broadcast* to the nodes holding matching S tuples, optionally after
*migrating* some nodes' S tuples onto fewer nodes (Theorem 1 shows the
per-node migration decisions are independent; Theorem 2 that the better
of the two optimized directions is the global single-key optimum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ScheduleError
from ..util import segment_ids
from .destinations import (
    migration_delta,
    paired_consolidation,
    scalar_consolidation,
    segmented_consolidation,
)
from .tracking import TrackingTable

__all__ = [
    "BroadcastPlan",
    "KeySchedule",
    "ScheduleSet",
    "selective_broadcast_cost",
    "migrate_and_broadcast",
    "optimal_schedule",
    "both_direction_plans",
    "generate_schedules",
]


# ---------------------------------------------------------------------------
# Scalar (single key) schedule generation -- mirrors the paper's pseudocode.
# ---------------------------------------------------------------------------


@dataclass
class BroadcastPlan:
    """Cost breakdown of one optimized selective-broadcast direction."""

    #: Total network cost: broadcast + location messages + migrations.
    cost: float
    #: Cost paid moving migrating-side tuples.
    migration_cost: float
    #: Nodes whose target-side tuples migrate to ``destination``.
    migrating_nodes: tuple[int, ...]
    #: Migration destination (the forced-stay node with maximal locality),
    #: or None when nothing migrates.
    destination: int | None


@dataclass
class KeySchedule:
    """The chosen schedule for one join key."""

    #: "RS" broadcasts R tuples to S locations; "SR" the opposite.
    direction: str
    plan: BroadcastPlan
    #: The rejected direction's plan (for introspection / examples).
    alternative: BroadcastPlan


def selective_broadcast_cost(
    broadcast_sizes: dict[int, float],
    target_sizes: dict[int, float],
    scheduler_node: int,
    location_width: float = 0.0,
) -> float:
    """Network cost of selectively broadcasting one side, no migration.

    Implements the paper's ``broadcast R to S`` cost routine: with
    ``R`` = broadcast side and ``S`` = target side,

    ``RScost = Rall * Snodes - Rlocal + Rnodes * Snodes * M``

    where ``Rnodes`` excludes the scheduler (location messages to self
    are free) and ``Rlocal`` credits broadcast-side bytes already living
    on a target node.
    """
    r_all = sum(broadcast_sizes.values())
    s_holders = [i for i, size in target_sizes.items() if size > 0]
    r_local = sum(size for i, size in broadcast_sizes.items() if target_sizes.get(i, 0) > 0)
    r_nodes = sum(1 for i, size in broadcast_sizes.items() if size > 0 and i != scheduler_node)
    return r_all * len(s_holders) - r_local + r_nodes * len(s_holders) * location_width


def migrate_and_broadcast(
    broadcast_sizes: dict[int, float],
    target_sizes: dict[int, float],
    scheduler_node: int,
    location_width: float = 0.0,
) -> BroadcastPlan:
    """Optimized selective broadcast: the ``migrate S & broadcast R`` routine.

    Checks, independently for every target-side holder, whether moving
    its tuples to the consolidation destination lowers total cost
    (Theorem 1), forcing the node with maximal ``|Ri| + |Si|`` to stay.
    """
    r_all = sum(broadcast_sizes.values())
    r_nodes = sum(1 for i, size in broadcast_sizes.items() if size > 0 and i != scheduler_node)
    cost = selective_broadcast_cost(
        broadcast_sizes, target_sizes, scheduler_node, location_width
    )
    holders = [i for i, size in target_sizes.items() if size > 0]
    if not holders:
        return BroadcastPlan(cost=cost, migration_cost=0.0, migrating_nodes=(), destination=None)

    def delta_of(i: int) -> float:
        return migration_delta(
            broadcast_sizes.get(i, 0.0),
            target_sizes[i],
            r_all,
            r_nodes,
            location_width,
            i == scheduler_node,
        )

    # One holder must stay (the migration destination); the shared core
    # forces out the maximal-delta holder and migrates every other
    # holder with a negative delta.  With a uniform message charge the
    # forced stay is the paper's max |Ri| + |Si| rule; with the
    # scheduler-local discount it also breaks ties correctly.
    forced_stay, migrating = scalar_consolidation(holders, delta_of)
    migration_cost = 0.0
    for i in migrating:
        cost += delta_of(i)
        migration_cost += target_sizes[i]
    destination = forced_stay if migrating else None
    return BroadcastPlan(
        cost=cost,
        migration_cost=migration_cost,
        migrating_nodes=tuple(migrating),
        destination=destination,
    )


def optimal_schedule(
    sizes_r: dict[int, float],
    sizes_s: dict[int, float],
    scheduler_node: int = 0,
    location_width: float = 0.0,
) -> KeySchedule:
    """Minimum-traffic schedule for a single key (Theorem 2).

    Computes both optimized directions and keeps the cheaper one; ties
    resolve to ``S -> R`` as in the paper's pseudocode (``if RScost <
    SRcost`` picks R->S strictly).
    """
    plan_rs = migrate_and_broadcast(sizes_r, sizes_s, scheduler_node, location_width)
    plan_sr = migrate_and_broadcast(sizes_s, sizes_r, scheduler_node, location_width)
    if plan_rs.cost < plan_sr.cost:
        return KeySchedule(direction="RS", plan=plan_rs, alternative=plan_sr)
    return KeySchedule(direction="SR", plan=plan_sr, alternative=plan_rs)


# ---------------------------------------------------------------------------
# Vectorized schedule generation over a TrackingTable.
# ---------------------------------------------------------------------------


@dataclass
class ScheduleSet:
    """Schedules for every tracked key, in tracking-table order.

    Per-key arrays are parallel to ``tracking.key_starts``; per-entry
    arrays are parallel to the tracking table's union rows.
    """

    tracking: TrackingTable
    #: Per key: True when R tuples are broadcast to S locations.
    direction_rs: np.ndarray
    #: Per key: cost of the chosen direction (diagnostics only).
    cost: np.ndarray
    #: Per key: cost of each direction before choosing.
    cost_rs: np.ndarray
    cost_sr: np.ndarray
    #: Per entry: this entry's migrating-side tuples move to ``dest_node``.
    migrate: np.ndarray
    #: Per key: migration destination node (-1 when nothing migrates).
    dest_node: np.ndarray
    #: Optional heavy-hitter sharding (``None`` ⇒ every key consolidates
    #: at a single destination and execution is byte-identical to the
    #: plain 4-phase plan).  ``sharded`` marks keys whose target side
    #: splits row-wise across multiple destinations; per sharded key
    #: ``k`` the destinations are ``shard_dests[shard_offsets[k]:
    #: shard_offsets[k + 1]]`` and the broadcast side replicates to all
    #: of them.  ``migrate``/``dest_node`` are cleared for sharded keys.
    sharded: np.ndarray | None = None
    #: CSR offsets into ``shard_dests``, length ``num_keys + 1``.
    shard_offsets: np.ndarray | None = None
    #: Concatenated shard destination node lists.
    shard_dests: np.ndarray | None = None

    @property
    def num_keys(self) -> int:
        """Number of scheduled keys."""
        return len(self.direction_rs)

    @property
    def has_shards(self) -> bool:
        """True when at least one key is sharded across destinations."""
        return self.sharded is not None and bool(self.sharded.any())

    def shard_dests_of(self, key: int) -> np.ndarray:
        """Shard destination nodes of one key (empty when unsharded)."""
        if self.shard_offsets is None or self.shard_dests is None:
            return np.empty(0, dtype=np.int64)
        return self.shard_dests[self.shard_offsets[key] : self.shard_offsets[key + 1]]


#: Keys per block in the paired schedule path.  The per-key pipeline
#: touches ~25 temporaries, so blocks of 2^15 keys keep the whole
#: working set (~6 MB) cache-resident instead of streaming every
#: operand through memory 100 times.  Measured optimum on the bench
#: box (smaller blocks pay python overhead, larger spill the cache).
_PAIRED_BLOCK = 1 << 15


def _both_direction_costs_paired(
    starts: np.ndarray,
    num_entries: int,
    counts: np.ndarray,
    nodes: np.ndarray,
    t_nodes: np.ndarray,
    size_r: np.ndarray,
    size_s: np.ndarray,
    location_width: float,
    allow_migration: bool,
) -> tuple[tuple, tuple]:
    """Both directions when every key has at most two tracking entries.

    The dominant real shape (a key lives on one R node and one S node)
    makes every segment reduction a single add/max of the segment's
    first and optional second entry, so the whole optimization runs on
    per-key arrays with no ``reduceat`` calls at all.  Phantom second
    entries of single-entry keys are zero-masked, which is bit-exact
    because every affected sum is non-negative or starts from the first
    entry (``x + 0.0 == x`` away from ``-0.0``).

    Every operation is elementwise per key, so the keys are processed in
    cache-sized blocks; block boundaries cannot change any result.
    """
    num_keys = len(starts)
    lw = location_width
    cost_rs = np.empty(num_keys, dtype=np.float64)
    cost_sr = np.empty(num_keys, dtype=np.float64)
    mig_rs = np.zeros(num_entries, dtype=bool)
    mig_sr = np.zeros(num_entries, dtype=bool)
    dest_rs = np.full(num_keys, -1, dtype=np.int64)
    dest_sr = np.full(num_keys, -1, dtype=np.int64)

    for lo in range(0, num_keys, _PAIRED_BLOCK):
        hi = min(lo + _PAIRED_BLOCK, num_keys)
        two = counts[lo:hi] == 2
        a = starts[lo:hi]
        b = a + two
        tn = t_nodes[lo:hi]

        size_r_a, size_s_a = size_r[a], size_s[a]
        size_r_b = np.where(two, size_r[b], 0.0)
        size_s_b = np.where(two, size_s[b], 0.0)
        has_r_a, has_s_a = size_r_a > 0, size_s_a > 0
        has_r_b, has_s_b = size_r_b > 0, size_s_b > 0
        nodes_a, nodes_b = nodes[a], nodes[b]
        ns_a = nodes_a != tn
        ns_b = nodes_b != tn

        r_all = size_r_a + size_r_b
        s_all = size_s_a + size_s_b
        # Holder/node tallies are at most 2; int8 keeps them a byte wide
        # and promotes to the identical float64 values in the cost terms.
        r_holders = has_r_a.astype(np.int8) + has_r_b
        s_holders = has_s_a.astype(np.int8) + has_s_b
        r_nodes = (has_r_a & ns_a).astype(np.int8) + (has_r_b & ns_b)
        s_nodes = (has_s_a & ns_a).astype(np.int8) + (has_s_b & ns_b)
        r_local = np.where(has_s_a, size_r_a, 0.0) + np.where(has_s_b, size_r_b, 0.0)
        s_local = np.where(has_r_a, size_s_a, 0.0) + np.where(has_r_b, size_s_b, 0.0)
        base_rs = r_all * s_holders - r_local + r_nodes * s_holders * lw
        base_sr = s_all * r_holders - s_local + s_nodes * r_holders * lw

        if not allow_migration:
            cost_rs[lo:hi] = base_rs
            cost_sr[lo:hi] = base_sr
            continue

        size_sum_a = size_r_a + size_s_a
        size_sum_b = size_r_b + size_s_b
        disc_a = np.where(ns_a, lw, 0.0)
        disc_b = np.where(ns_b, lw, 0.0)
        second = b[two]

        def one_direction(base, b_all, b_nodes, has_t_a, has_t_b, cost, mig, dest):
            bn_lw = b_nodes * lw
            delta_a = size_sum_a - b_all - bn_lw + disc_a
            delta_b = size_sum_b - b_all - bn_lw + disc_b
            mig_a, mig_b, _, dest_block = paired_consolidation(
                delta_a, delta_b, has_t_a, has_t_b, nodes_a, nodes_b
            )
            cost[lo:hi] = base + (
                np.where(mig_a, delta_a, 0.0) + np.where(mig_b, delta_b, 0.0)
            )
            dest[lo:hi] = dest_block
            mig[a] = mig_a
            mig[second] = mig_b[two]

        one_direction(base_rs, r_all, r_nodes, has_s_a, has_s_b, cost_rs, mig_rs, dest_rs)
        one_direction(base_sr, s_all, s_nodes, has_r_a, has_r_b, cost_sr, mig_sr, dest_sr)

    if not allow_migration:
        no_migration = np.zeros(num_entries, dtype=bool)
        no_dest = np.full(num_keys, -1, dtype=np.int64)
        return (cost_rs, no_migration, no_dest), (cost_sr, no_migration, no_dest)

    return (cost_rs, mig_rs, dest_rs), (cost_sr, mig_sr, dest_sr)


def both_direction_plans(
    tracking: TrackingTable,
    location_width: float = 1.0,
    allow_migration: bool = True,
    seg: np.ndarray | None = None,
) -> tuple[tuple, tuple]:
    """Both optimized directions' plans for every key at once.

    Returns ``((cost_rs, migrate_rs, dest_rs), (cost_sr, migrate_sr,
    dest_sr))`` — per-key costs and default destinations, per-entry
    migration masks.  This is the vectorized candidate evaluation
    shared by :func:`generate_schedules` and the load-aware policies
    (:mod:`repro.core.balance`, :mod:`repro.core.skew`), which differ
    only in how they pick a direction and destination from these plans.
    The two directions share their precomputation; keys with at most
    two tracking entries each take the reduceat-free paired path.
    """
    starts = tracking.key_starts
    nodes = tracking.nodes
    t_nodes = tracking.t_nodes
    size_r = tracking.size_r
    size_s = tracking.size_s
    num_entries = tracking.num_entries
    if seg is None:
        seg = segment_ids(starts, num_entries)
    counts = np.diff(np.append(starts, num_entries))
    if int(counts.max()) <= 2:
        return _both_direction_costs_paired(
            starts,
            num_entries,
            counts,
            nodes,
            t_nodes,
            size_r,
            size_s,
            location_width,
            allow_migration,
        )
    t_node_of_entry = t_nodes[seg]
    has_r = size_r > 0
    has_s = size_s > 0
    not_scheduler = nodes != t_node_of_entry
    r_all = np.add.reduceat(size_r, starts)
    s_all = np.add.reduceat(size_s, starts)
    r_holders = np.add.reduceat(has_r, starts, dtype=np.int64)
    s_holders = np.add.reduceat(has_s, starts, dtype=np.int64)
    r_nodes = np.add.reduceat(has_r & not_scheduler, starts, dtype=np.int64)
    s_nodes = np.add.reduceat(has_s & not_scheduler, starts, dtype=np.int64)
    r_local = np.add.reduceat(np.where(has_s, size_r, 0.0), starts)
    s_local = np.add.reduceat(np.where(has_r, size_s, 0.0), starts)
    base_rs = r_all * s_holders - r_local + r_nodes * s_holders * location_width
    base_sr = s_all * r_holders - s_local + s_nodes * r_holders * location_width

    if not allow_migration:
        no_migration = np.zeros(num_entries, dtype=bool)
        no_dest = np.full(len(starts), -1, dtype=np.int64)
        return (base_rs, no_migration, no_dest), (base_sr, no_migration, no_dest)

    size_sum = size_r + size_s
    scheduler_discount = np.where(not_scheduler, location_width, 0.0)

    def one_direction(base, b_all, b_nodes, has_t):
        delta = (
            size_sum
            - b_all[seg]
            - (b_nodes * location_width)[seg]
            + scheduler_discount
        )
        migrate, _, dest, savings = segmented_consolidation(
            seg, starts, nodes, delta, has_t
        )
        return base + savings, migrate, dest

    return (
        one_direction(base_rs, r_all, r_nodes, has_s),
        one_direction(base_sr, s_all, s_nodes, has_r),
    )


def empty_schedule_set(tracking: TrackingTable) -> ScheduleSet:
    """A schedule set over zero tracked keys."""
    empty_f = np.empty(0, dtype=np.float64)
    empty_b = np.empty(0, dtype=bool)
    empty_i = np.empty(0, dtype=np.int64)
    return ScheduleSet(tracking, empty_b, empty_f, empty_f, empty_f, empty_b, empty_i)


def generate_schedules(
    tracking: TrackingTable,
    location_width: float = 1.0,
    allow_migration: bool = True,
    forced_direction: str | None = None,
    seg: np.ndarray | None = None,
) -> ScheduleSet:
    """Generate per-key schedules for the whole tracking table at once.

    Parameters
    ----------
    allow_migration:
        ``True`` for 4-phase track join; ``False`` gives the 3-phase
        bi-directional selective broadcast.
    forced_direction:
        ``"RS"`` or ``"SR"`` pins every key to one direction (2-phase
        track join); ``None`` chooses per key.
    seg:
        Optional precomputed ``segment_ids(tracking.key_starts,
        tracking.num_entries)``, so callers that already expanded the
        segments don't pay for it again.
    """
    if forced_direction not in (None, "RS", "SR"):
        raise ScheduleError(f"invalid forced direction {forced_direction!r}")
    starts = tracking.key_starts
    num_entries = tracking.num_entries
    if num_entries == 0:
        return empty_schedule_set(tracking)
    if seg is None:
        seg = segment_ids(starts, num_entries)

    (cost_rs, mig_rs, dest_rs), (cost_sr, mig_sr, dest_sr) = both_direction_plans(
        tracking, location_width, allow_migration, seg
    )

    if forced_direction == "RS":
        direction_rs = np.ones(len(starts), dtype=bool)
    elif forced_direction == "SR":
        direction_rs = np.zeros(len(starts), dtype=bool)
    else:
        direction_rs = cost_rs < cost_sr

    migrate = np.where(direction_rs[seg], mig_rs, mig_sr)
    dest_node = np.where(direction_rs, dest_rs, dest_sr)
    cost = np.where(direction_rs, cost_rs, cost_sr)
    return ScheduleSet(
        tracking=tracking,
        direction_rs=direction_rs,
        cost=cost,
        cost_rs=cost_rs,
        cost_sr=cost_sr,
        migrate=migrate,
        dest_node=dest_node,
    )
