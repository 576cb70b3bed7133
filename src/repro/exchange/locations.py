"""LocationExchange: (key, node) instruction streams of the scheduler.

Scheduling nodes steer both migrations and selective broadcasts with
streams of (key, node) pairs — "move this key's tuples there" / "send
this key's tuples there".  The pairs are accounted per (sender,
receiver) link at their wire size (:func:`location_message_bytes`,
including the Section 2.4 grouped-by-node and delta-key encodings), and
pairs addressed to the scheduling node itself are free — the paper's
``i != self`` exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..timing.profile import ExecutionProfile

__all__ = ["LocationExchange"]


@dataclass
class LocationExchange:
    """Account per-link (key, node) location messages, one row per sender.

    Parameters
    ----------
    step:
        Net step name of remote sends; self-sends fall under the shared
        ``Local copy keys, nodes`` step.
    key_width:
        Wire bytes per key.
    location_width:
        ``M`` of the paper: bytes of one node identifier.
    group_by_node:
        Section 2.4 optimization: amortize each node id over the keys
        sharing it instead of repeating it per pair.
    """

    step: str
    key_width: float
    location_width: float
    group_by_node: bool = False

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        senders: np.ndarray,
        receivers: np.ndarray,
        node_values: np.ndarray,
    ) -> None:
        """Send one size-only message per active (sender, receiver) link.

        ``senders``/``receivers``/``node_values`` are parallel pair
        arrays: the scheduling node, the holder it instructs, and the
        node id the pair carries.  Per link the message size depends on
        the pair count and (for grouped encodings) the distinct node
        values, so both are reduced here in one vectorized pass.
        """
        # Deferred: repro.core's package init pulls in the track join
        # operators, which import this package — a top-level import here
        # would close that cycle during interpreter start-up.
        from ..core.messages import location_message_bytes

        if len(senders) == 0:
            return
        n = cluster.num_nodes
        if n * n * n <= (1 << 20):
            # The (sender, receiver, value) triple domain is tiny: count
            # every triple with one bincount pass and read link totals
            # and per-link distinct values straight off the table — no
            # sort.
            composite = (senders * n + receivers) * n + node_values
            triple_counts = np.bincount(composite, minlength=n * n * n).reshape(n * n, n)
            link_counts = triple_counts.sum(axis=1)
            link_distinct = np.count_nonzero(triple_counts, axis=1)
            links = np.flatnonzero(link_counts)
            counts = link_counts[links]
            distinct_counts = link_distinct[links]
            group_src = links // n
            group_dst = links % n
        elif n * n * n <= (1 << 62):
            # Grouped distinct counting in one pass: sort the packed
            # (sender, receiver, value) triple, find link-group
            # boundaries, and count value changes per group — no
            # per-group np.unique.
            composite = (senders * n + receivers) * n + node_values
            if n * n * n <= (1 << 16):
                order = np.argsort(composite.astype(np.uint16), kind="stable")
            else:
                order = np.argsort(composite, kind="stable")
            c_sorted = composite[order]
            link = c_sorted // n
            change = np.empty(len(order), dtype=bool)
            change[0] = True
            np.not_equal(link[1:], link[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            counts = np.diff(np.append(starts, len(order)))
            value_change = np.empty(len(order), dtype=bool)
            value_change[0] = True
            np.not_equal(c_sorted[1:], c_sorted[:-1], out=value_change[1:])
            # Per-group change totals via one cumsum pass (reduceat walks
            # element-by-element; there are only ~n^2 groups).
            cumulative = np.cumsum(value_change)
            ends = np.append(starts[1:], len(order))
            distinct_counts = cumulative[ends - 1] - cumulative[starts] + 1
            group_src = link[starts] // n
            group_dst = link[starts] % n
        else:
            order = np.lexsort((node_values, receivers, senders))
            s_sorted = senders[order]
            r_sorted = receivers[order]
            v_sorted = node_values[order]
            change = np.empty(len(order), dtype=bool)
            change[0] = True
            np.logical_or(
                s_sorted[1:] != s_sorted[:-1],
                r_sorted[1:] != r_sorted[:-1],
                out=change[1:],
            )
            starts = np.flatnonzero(change)
            counts = np.diff(np.append(starts, len(order)))
            distinct_counts = np.array(
                [
                    len(np.unique(v_sorted[start : start + count]))
                    for start, count in zip(starts, counts)
                ],
                dtype=np.int64,
            )
            group_src = s_sorted[starts]
            group_dst = r_sorted[starts]
        nbytes = location_message_bytes(
            counts,
            distinct_counts,
            self.key_width,
            self.location_width,
            group_by_node=self.group_by_node,
        )
        # Links come out sorted by (sender, receiver): one row per
        # scheduling node.
        row_starts = np.flatnonzero(np.r_[True, group_src[1:] != group_src[:-1]])
        row_ends = np.append(row_starts[1:], len(group_src))
        for start, end in zip(row_starts.tolist(), row_ends.tolist()):
            cluster.network.send_batches(
                int(group_src[start]),
                MessageClass.KEYS_NODES,
                None,
                dsts=group_dst[start:end],
                nbytes=nbytes[start:end],
            )
        # Profile attribution in the order a per-message loop creates
        # the steps: the first message's transfer (or local copy) step,
        # then the receivers' merge of the incoming pair lists, then
        # whichever of transfer/copy the other messages add.
        local_step = "Local copy keys, nodes"
        profile.add_net_row(self.step, local_step, group_src[:1], group_dst[:1], nbytes[:1])
        profile.add_cpu_nodes("Merge rec. keys, nodes", "merge", group_dst, nbytes)
        profile.add_net_row(self.step, local_step, group_src[1:], group_dst[1:], nbytes[1:])
