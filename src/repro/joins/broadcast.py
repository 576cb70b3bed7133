"""Broadcast join: replicate one table to every node.

The cheapest plan when one input is tiny, and one of the seven
algorithms compared throughout the paper's Figures 3-11 (``BJ-R``
broadcasts table R, ``BJ-S`` broadcasts S).  Every node ships its local
fragment of the broadcast side to all other nodes and then joins the
full broadcast table against its local fragment of the other side.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..errors import ValidationError
from ..exchange.broadcast import Broadcast
from ..exchange.gather import drain_category
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec, NodeOutputs
from .local import concat_join_side, join_cardinality, local_join

__all__ = ["BroadcastJoin"]


class BroadcastJoin(DistributedJoin):
    """Broadcast R to all S locations, or S to all R locations."""

    def __init__(self, broadcast: str = "R"):
        if broadcast not in ("R", "S"):
            raise ValidationError(f"broadcast side must be 'R' or 'S', got {broadcast!r}")
        self.broadcast = broadcast
        self.name = f"BJ-{broadcast}"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> NodeOutputs:
        if self.broadcast == "R":
            moving, staying = table_r, table_s
            category = MessageClass.R_TUPLES
            step = "R tuples"
        else:
            moving, staying = table_s, table_r
            category = MessageClass.S_TUPLES
            step = "S tuples"
        width = moving.schema.tuple_width(spec.encoding)
        Broadcast(category, width, step).scatter(cluster, profile, moving.partitions)

        # Every node joins the same broadcast multiset, so the full table
        # (and, via the final join, its key index) is assembled once and
        # shared instead of re-concatenated and re-sorted per node.  The
        # index is built here, before the join phase fans out, so
        # concurrent node tasks only ever read it.  Inboxes are still
        # drained per node so the network sees identical deliveries.  A
        # counting join needs only the keys.
        full_moving = concat_join_side(list(moving.partitions), spec.materialize)
        if full_moving.num_rows and self.broadcast == "S":
            # Only BJ-S probes the shared table as the join's right side.
            full_moving.key_index()

        def join_node(node: int) -> LocalPartition | int:
            drain_category(cluster, node, category)
            local = staying.partitions[node]
            left, right = (full_moving, local) if self.broadcast == "R" else (local, full_moving)
            if spec.materialize:
                joined = local_join(left, right, "r.", "s.")
                rows = joined.num_rows
            else:
                joined = rows = join_cardinality(left.keys, right.keys, right)
            in_bytes = full_moving.num_rows * width + local.num_rows * staying.schema.tuple_width(spec.encoding)
            out_bytes = rows * (
                table_r.schema.tuple_width(spec.encoding)
                + table_s.schema.payload_width(spec.encoding)
            )
            profile.add_cpu_at("Final merge-join", "merge", node, in_bytes + out_bytes)
            return joined

        return cluster.run_phase(join_node, profile=profile)
