"""SelectiveBroadcast: location-directed sends — the heart of track join.

Where a plain broadcast replicates everything everywhere, the selective
broadcast of Section 2.2 ships each holder's matching tuples only to the
nodes the schedule says have matches: the scheduling nodes deliver
(key, destination) location pairs, each holder joins them against its
local fragment, and the matched tuples scatter directly to their
per-pair destinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..joins.local import join_indices
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import stable_argsort_bounded
from .base import send_split

__all__ = ["SelectiveBroadcast"]


@dataclass
class SelectiveBroadcast:
    """Send each holder's matching tuples to per-(key, destination) targets.

    Parameters
    ----------
    category:
        Message class of the tuple transfers.
    width:
        Wire bytes per shipped tuple.
    match_width:
        Bytes of one location pair (key + node id) — the per-pair term
        of the translate step's CPU accounting.
    transfer_step / copy_step:
        Profile attribution of remote sends and self-sends.
    translate_step:
        CPU step covering the pair → tuple translation and the
        partition-by-destination scatter.
    """

    category: MessageClass
    width: float
    match_width: float
    transfer_step: str
    copy_step: str
    translate_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        sources: Sequence[LocalPartition],
        pair_src: np.ndarray,
        pair_dst: np.ndarray,
        pair_key: np.ndarray,
    ) -> None:
        """One phase: each source node translates its pairs and sends.

        ``pair_src``/``pair_dst``/``pair_key`` are parallel arrays of
        location pairs: the holder node, the destination node, and the
        key whose tuples move.  Pairs are grouped by holder with one
        stable sort so every holder's pairs keep their global order.
        """
        num_nodes = cluster.num_nodes
        order = stable_argsort_bounded(pair_src, num_nodes)
        bounds = np.searchsorted(pair_src[order], np.arange(num_nodes + 1))

        def broadcast_holder(src: int) -> None:
            rows = order[bounds[src] : bounds[src + 1]]
            if len(rows) == 0:
                return
            keys_here = pair_key[rows]
            dst_here = pair_dst[rows]
            local = sources[src]
            pair_pos, local_rows = join_indices(
                keys_here, local.keys, right_partition=local
            )
            profile.add_cpu_at(
                self.translate_step,
                "merge",
                src,
                len(rows) * self.match_width + len(local_rows) * self.width,
            )
            if len(local_rows) == 0:
                return
            # One gather routes the matched tuples straight to their
            # destination slices — no per-destination take() copies and
            # no intermediate full materialization of the matched batch.
            destinations = dst_here[pair_pos]
            batches = local.split_by(destinations, num_nodes, rows=local_rows)
            send_split(
                cluster, profile, self.category, src, batches, self.width,
                self.transfer_step, self.copy_step,
            )

        cluster.run_phase(broadcast_holder, profile=profile)
