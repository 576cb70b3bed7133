"""Shuffle: hash scatter of tuples or key streams across the cluster.

The partitioned-everywhere primitive of Grace/Gamma-style algorithms:
every node hash-partitions its fragment on the join key and ships each
bucket to its hash node.  Two flavors exist:

- :class:`Shuffle` — full tuples travel (Grace hash join, the paper's
  ``HJ`` baseline): wire size is ``rows × tuple width``.
- :class:`KeyShuffle` — only keys travel, with implicit record ids
  (Section 3.2's rid-based joins): arrivals carry ``node``/``pos``
  origin columns identifying each key's source tuple, but only the key
  column is accounted on the wire — rids are implicit in message origin
  and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from .base import send_split
from .gather import Gather

__all__ = ["Shuffle", "KeyShuffle"]


@dataclass
class Shuffle:
    """Hash-scatter full tuples; every bucket travels to its hash node.

    Parameters
    ----------
    category:
        Message class the shuffled bytes are accounted under.
    width:
        Wire bytes per tuple.
    step:
        Step-name stem; sends are attributed to ``Transfer {step}`` /
        ``Local copy {step}`` and the partitioning CPU work to
        ``Hash partition {step}``.
    hash_seed:
        Seed of the placement hash.
    """

    category: MessageClass
    width: float
    step: str
    hash_seed: int = 0

    def scatter(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        partitions: Sequence[LocalPartition],
    ) -> None:
        """One phase: every node hash-splits its fragment and sends."""
        transfer_step = f"Transfer {self.step}"
        local_step = f"Local copy {self.step}"

        def scatter_node(src: int) -> None:
            fragment = partitions[src]
            profile.add_cpu_at(
                f"Hash partition {self.step}",
                "partition",
                src,
                fragment.num_rows * self.width,
            )
            batches = fragment.hash_split(cluster.num_nodes, self.hash_seed)
            send_split(
                cluster, profile, self.category, src, batches, self.width,
                transfer_step, local_step,
            )

        cluster.run_phase(scatter_node, profile=profile)

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        partitions: Sequence[LocalPartition],
        empty_names: tuple[str, ...] = (),
    ) -> list[LocalPartition]:
        """Scatter, then gather each node's arrivals into one partition."""
        self.scatter(cluster, profile, partitions)
        return Gather(self.category, empty_names).run(cluster, profile)


@dataclass
class KeyShuffle:
    """Hash-scatter (key, implicit rid) streams.

    Arrivals carry ``node``/``pos`` columns recording each key's origin
    tuple; only ``key_width`` bytes per row are accounted on the wire.
    """

    key_width: float
    step: str
    hash_seed: int = 0
    category: MessageClass = MessageClass.RIDS

    def scatter(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        partitions: Sequence[LocalPartition],
    ) -> None:
        """One phase: every node scatters its key column with origins."""
        transfer_step = f"Transfer {self.step}"
        local_step = f"Local copy {self.step}"

        def scatter_node(src: int) -> None:
            partition = partitions[src]
            profile.add_cpu_at(
                f"Hash partition {self.step}",
                "partition",
                src,
                partition.num_rows * self.key_width,
            )
            if partition.num_rows == 0:
                return
            plan = partition.hash_scatter_plan(cluster.num_nodes, self.hash_seed)
            order, bounds = plan.order, plan.bounds
            gathered_keys = partition.keys[order]
            batches: list[LocalPartition | None] = []
            for dst in range(cluster.num_nodes):
                lo, hi = bounds[dst], bounds[dst + 1]
                rows = order[lo:hi]
                if len(rows) == 0:
                    batches.append(None)
                    continue
                batches.append(
                    LocalPartition(
                        keys=gathered_keys[lo:hi],
                        columns={
                            "node": np.full(len(rows), src, dtype=np.int64),
                            "pos": rows.astype(np.int64),
                        },
                    )
                )
            send_split(
                cluster, profile, self.category, src, batches, self.key_width,
                transfer_step, local_step,
            )

        cluster.run_phase(scatter_node, profile=profile)

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        partitions: Sequence[LocalPartition],
    ) -> list[LocalPartition]:
        """Scatter, then gather; empty nodes get ``node``/``pos`` columns."""
        self.scatter(cluster, profile, partitions)
        return Gather(None, ("node", "pos")).run(cluster, profile)
