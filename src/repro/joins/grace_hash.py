"""Grace hash join over the network: the paper's baseline.

Both tables are hash-partitioned on the join key across the ``N`` nodes
(the Grace/Gamma scheme [9, 17] applied to a network instead of disks).
Each tuple crosses the network unless its key happens to hash to the
node it already lives on (probability ``1/N``), so the algorithm moves
almost the full size of both tables — the inefficiency track join
attacks.

The step structure mirrors Table 3 of the paper: hash-partition R and S,
transfer the fragments, sort the received runs, and merge-join locally.
Each step runs as one cluster phase (:meth:`Cluster.run_phase`), so the
per-node work parallelizes across the cluster's workers while traffic
accounting stays byte-identical to the serial run.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.gather import Gather
from ..exchange.shuffle import Shuffle
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec, NodeOutputs
from .local import join_cardinality, local_join

__all__ = ["GraceHashJoin"]


class GraceHashJoin(DistributedJoin):
    """Distributed hash join (hash-partition both inputs, join locally)."""

    name = "HJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> NodeOutputs:
        if cluster.pipeline_active():
            # Pipelined mode fuses the two scatters under one barrier —
            # R's sends overlap S's hash-partitioning — then gathers
            # each category strictly (gathers drain shared inboxes and
            # must not run concurrently).  Each gather pulls only its
            # own message class, so arrivals are identical to the
            # strict scatter/gather interleaving.
            with cluster.pipelined_phases():
                self._shuffle(table_r, spec, MessageClass.R_TUPLES, "R tuples").scatter(
                    cluster, profile, table_r.partitions
                )
                self._shuffle(table_s, spec, MessageClass.S_TUPLES, "S tuples").scatter(
                    cluster, profile, table_s.partitions
                )
            received_r = Gather(MessageClass.R_TUPLES, table_r.payload_names).run(
                cluster, profile
            )
            received_s = Gather(MessageClass.S_TUPLES, table_s.payload_names).run(
                cluster, profile
            )
        else:
            received_r = self._repartition(
                cluster, table_r, spec, profile, MessageClass.R_TUPLES, "R tuples"
            )
            received_s = self._repartition(
                cluster, table_s, spec, profile, MessageClass.S_TUPLES, "S tuples"
            )

        width_r = table_r.schema.tuple_width(spec.encoding)
        width_s = table_s.schema.tuple_width(spec.encoding)
        out_width = width_r + table_s.schema.payload_width(spec.encoding)

        def join_node(node: int) -> LocalPartition | int:
            part_r = received_r[node]
            part_s = received_s[node]
            if spec.materialize:
                joined = local_join(part_r, part_s, "r.", "s.")
                rows = joined.num_rows
            else:
                joined = rows = join_cardinality(part_r.keys, part_s.keys, part_s)
            profile.add_cpu_steps(
                node,
                [
                    ("Sort received R tuples", "sort", part_r.num_rows * width_r),
                    ("Sort received S tuples", "sort", part_s.num_rows * width_s),
                    (
                        "Final merge-join",
                        "merge",
                        part_r.num_rows * width_r
                        + part_s.num_rows * width_s
                        + rows * out_width,
                    ),
                ],
            )
            return joined

        return cluster.run_phase(join_node, profile=profile)

    def _shuffle(
        self,
        table: DistributedTable,
        spec: JoinSpec,
        category: MessageClass,
        step: str,
    ) -> Shuffle:
        width = table.schema.tuple_width(spec.encoding)
        return Shuffle(category, width, step, hash_seed=spec.hash_seed)

    def _repartition(
        self,
        cluster: Cluster,
        table: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
        category: MessageClass,
        step: str,
    ) -> list[LocalPartition]:
        """Hash-partition one table; returns the received fragments per node."""
        return self._shuffle(table, spec, category, step).run(
            cluster, profile, table.partitions, empty_names=table.payload_names
        )
