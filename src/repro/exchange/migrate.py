"""Migrate: consolidation moves of the 4-phase track join (Section 2.5).

Holders told to consolidate extract their matching tuples, ship them to
the designated destination, and keep the rest; the moved tuples join
the destination's local fragment at the next barrier
(:func:`repro.exchange.gather.absorb_received`), shrinking the set of
locations the subsequent selective broadcast must reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableSequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..joins.local import join_indices
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import stable_argsort_bounded
from .base import send_split

__all__ = ["Migrate", "ShardedMigrate"]


@dataclass
class Migrate:
    """Move each holder's matching tuples to their consolidation target.

    Parameters
    ----------
    category:
        Message class of the migrated tuples.
    width:
        Wire bytes per migrated tuple.
    transfer_step / copy_step:
        Profile attribution of remote moves and (theoretical)
        self-moves; schedules never consolidate a key onto a node it
        already occupies, so ``copy_step`` stays empty in practice.
    """

    category: MessageClass
    width: float
    transfer_step: str
    copy_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        holders: MutableSequence[LocalPartition],
        keys: np.ndarray,
        nodes: np.ndarray,
        dests: np.ndarray,
    ) -> None:
        """One phase: each instructed holder extracts, keeps, and sends.

        ``keys``/``nodes``/``dests`` are parallel migration-instruction
        arrays: move the tuples of ``keys[i]`` held at ``nodes[i]`` to
        ``dests[i]``.  ``holders`` is mutated in place — each migrating
        node's entry is replaced by its kept remainder; arrivals are
        absorbed later at the consolidation barrier.
        """
        # One radix sort splits the instructions by holder; stability
        # keeps each holder's instructions in their global order.
        order = stable_argsort_bounded(nodes, cluster.num_nodes)
        bounds = np.searchsorted(nodes[order], np.arange(cluster.num_nodes + 1))
        node_groups = [
            (node, order[bounds[node] : bounds[node + 1]])
            for node in range(cluster.num_nodes)
            if bounds[node + 1] > bounds[node]
        ]

        def migrate_holder(group: int) -> None:
            node, rows_sel = node_groups[group]
            keys_here = keys[rows_sel]
            dest_here = dests[rows_sel]
            local = holders[node]
            pair_pos, rows = join_indices(keys_here, local.keys, right_partition=local)
            if len(rows) == 0:
                return
            destinations = dest_here[pair_pos]
            keep = np.ones(local.num_rows, dtype=bool)
            keep[rows] = False
            batches = local.split_by(destinations, cluster.num_nodes, rows=rows)
            holders[node] = local.take(np.flatnonzero(keep))
            send_split(
                cluster, profile, self.category, int(node), batches, self.width,
                self.transfer_step, self.copy_step,
            )

        # Crash recovery must know which node each task simulates: this
        # phase runs one task per *instructed holder*, not per node.
        cluster.run_phase(
            migrate_holder,
            tasks=len(node_groups),
            profile=profile,
            task_nodes=[node for node, _ in node_groups],
        )


@dataclass
class ShardedMigrate:
    """Split each holder's matching tuples across several destinations.

    The heavy-hitter extension of :class:`Migrate`: where a plain
    migration consolidates a (key, holder)'s tuples at one node, a
    sharded migration deals them round-robin over the key's shard
    destination list, so no single node absorbs a hot key's whole build
    side.  Row order within the holder decides the deal, making the
    split deterministic for every worker count.
    """

    category: MessageClass
    width: float
    transfer_step: str
    copy_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        holders: MutableSequence[LocalPartition],
        keys: np.ndarray,
        nodes: np.ndarray,
        dest_offsets: np.ndarray,
        dest_nodes: np.ndarray,
    ) -> None:
        """One phase: each instructed holder deals its rows to the shards.

        ``keys``/``nodes`` are parallel instruction arrays; instruction
        ``i`` moves the tuples of ``keys[i]`` held at ``nodes[i]`` to
        the destinations ``dest_nodes[dest_offsets[i]:dest_offsets[i +
        1]]``, one row at a time in cyclic order.  ``holders`` is
        mutated in place like :meth:`Migrate.run`; a destination that is
        the holder itself keeps its deal as a local copy.
        """
        order = np.argsort(nodes, kind="stable")
        bounds = np.searchsorted(nodes[order], np.arange(cluster.num_nodes + 1))
        node_groups = [
            (node, order[bounds[node] : bounds[node + 1]])
            for node in range(cluster.num_nodes)
            if bounds[node + 1] > bounds[node]
        ]

        def shard_holder(group: int) -> None:
            node, instr_sel = node_groups[group]
            keys_here = keys[instr_sel]
            local = holders[node]
            pair_pos, rows = join_indices(keys_here, local.keys, right_partition=local)
            if len(rows) == 0:
                return
            # Group the matched rows by instruction, keeping their
            # relative order, then deal each group cyclically over its
            # destination list.
            grouping = np.argsort(pair_pos, kind="stable")
            grouped_pos = pair_pos[grouping]
            group_starts = np.flatnonzero(
                np.r_[True, grouped_pos[1:] != grouped_pos[:-1]]
            )
            within = np.arange(len(grouped_pos)) - np.repeat(
                group_starts, np.diff(np.append(group_starts, len(grouped_pos)))
            )
            instr = instr_sel[grouped_pos]
            num_dests = (dest_offsets[instr + 1] - dest_offsets[instr]).astype(
                np.int64
            )
            destinations = dest_nodes[dest_offsets[instr] + within % num_dests]
            keep = np.ones(local.num_rows, dtype=bool)
            keep[rows] = False
            batches = local.split_by(
                destinations, cluster.num_nodes, rows=rows[grouping]
            )
            holders[node] = local.take(np.flatnonzero(keep))
            send_split(
                cluster, profile, self.category, int(node), batches, self.width,
                self.transfer_step, self.copy_step,
            )

        cluster.run_phase(
            shard_holder,
            tasks=len(node_groups),
            profile=profile,
            task_nodes=[node for node, _ in node_groups],
        )
