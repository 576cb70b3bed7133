"""The tracking phase: discover where every join key's tuples live.

Both inputs are projected to their join key; each node eliminates local
duplicates and sends its distinct keys — optionally with per-node match
counts (3/4-phase) — to the key's scheduling node ``hash(k) mod N``.
The scheduling nodes thereby assemble, for every distinct key, the list
of nodes holding matches on either side, which is the input to per-key
schedule generation.

This module materializes that state as a :class:`TrackingTable`: a flat
"union table" with one row per (key, node) pair that holds at least one
matching tuple on either side, carrying the total matching tuple *size*
per side (count x tuple width, generalizing counts to variable lengths
as the paper prescribes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.base import send_to
from ..fastpath import fused_enabled
from ..storage.table import DistributedTable
from ..timing.profile import ExecutionProfile
from ..util import hash_partition, segment_boundaries
from .messages import tracking_message_bytes

__all__ = ["TrackingTable", "run_tracking_phase"]


@dataclass
class TrackingTable:
    """Union of per-node key occurrences across both tables.

    All arrays are parallel and sorted by ``(key, node)``:

    Attributes
    ----------
    keys:
        Join key of the entry.
    nodes:
        Node holding matching tuples of that key.
    size_r, size_s:
        Total matching tuple bytes of each table on that node (0 when
        the node has no tuples of that side).
    key_starts:
        Segment offsets: entries of one distinct key are contiguous.
    t_nodes:
        Scheduling node of each distinct key (parallel to segments).
    """

    keys: np.ndarray
    nodes: np.ndarray
    size_r: np.ndarray
    size_s: np.ndarray
    key_starts: np.ndarray
    t_nodes: np.ndarray

    @property
    def num_entries(self) -> int:
        """Number of (key, node) union rows."""
        return len(self.keys)

    @property
    def num_keys(self) -> int:
        """Number of distinct tracked keys."""
        return len(self.key_starts)

    def distinct_keys(self) -> np.ndarray:
        """The distinct key values, in sorted order."""
        return self.keys[self.key_starts]


def run_tracking_phase(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec,
    profile: ExecutionProfile,
    with_counts: bool = True,
) -> TrackingTable:
    """Execute the tracking phase and assemble the global tracking table.

    Parameters
    ----------
    with_counts:
        3/4-phase track join tracks per-node match counts; 2-phase sends
        bare keys (``False`` drops the count bytes from the traffic).
    """
    num_nodes = cluster.num_nodes
    width_r = table_r.schema.tuple_width(spec.encoding)
    width_s = table_s.schema.tuple_width(spec.encoding)
    key_width = table_r.schema.key_width(spec.encoding)

    fused = fused_enabled()
    sides = (
        ("R", table_r, width_r, spec.count_width_r),
        ("S", table_s, width_s, spec.count_width_s),
    )
    all_keys: list[np.ndarray] = []
    all_nodes: list[np.ndarray] = []
    all_sizes: dict[str, list[np.ndarray]] = {"R": [], "S": []}
    stream_sizes: list[np.ndarray] = []
    stream_nodes: list[int] = []
    r_entries = 0

    def track_partition(task: int):
        """Dedup + scatter one (side, node) partition; returns its stream."""
        side, table, width, count_width = sides[task // num_nodes]
        node = task % num_nodes
        partition = table.partitions[node]
        if fused:
            distinct, counts = partition.distinct_with_counts()
        else:
            distinct, counts = np.unique(partition.keys, return_counts=True)
        # Local sort + key aggregation (dedup) before tracking, then the
        # hash partitioning of the (key [, count]) entries to ship.
        cpu_steps = [
            (f"Sort local {side} tuples", "sort", partition.num_rows * width),
            ("Aggregate keys", "aggregate", partition.num_rows * key_width),
        ]
        if len(distinct):
            cpu_steps.append(
                (
                    "Hash part. keys, counts",
                    "partition",
                    len(distinct) * (key_width + (count_width if with_counts else 0)),
                )
            )
        profile.add_cpu_steps(node, cpu_steps)
        if len(distinct) == 0:
            return None
        sizes = counts.astype(np.float64) * width
        if fused:
            plan = partition.distinct_scatter_plan(num_nodes, spec.hash_seed)
            order, boundaries = plan.order, plan.bounds
        else:
            t_of_key = hash_partition(distinct, num_nodes, spec.hash_seed)
            order = np.argsort(t_of_key, kind="stable")
            boundaries = np.searchsorted(t_of_key[order], np.arange(num_nodes + 1))
        entries = np.diff(boundaries)
        dsts = np.flatnonzero(entries)
        if fused and not spec.delta_keys:
            # Plain-coded tracking messages are sized purely by entry
            # count; skip materializing the key groups.
            per_entry = entries[dsts]
            nbytes = per_entry * key_width + per_entry * (
                count_width if with_counts else 0.0
            )
        else:
            nbytes = [
                tracking_message_bytes(
                    distinct[order[boundaries[dst] : boundaries[dst + 1]]],
                    key_width,
                    count_width if with_counts else 0.0,
                    delta_keys=spec.delta_keys,
                )
                for dst in dsts
            ]
        # The scheduling nodes rebuild the tracked state from the
        # returned streams, so the messages are size-only.
        send_to(
            cluster, profile, MessageClass.KEYS_COUNTS, node, dsts, nbytes,
            "Transfer key, count", "Local copy key, count",
        )
        return side, node, distinct, sizes

    # One task per (side, node): R partitions first, then S, so the
    # stream assembly below sees the same order as a serial nested loop.
    # task_nodes maps both sides' tasks back to the node they simulate,
    # so crash injection hits each node's R and S work alike.
    streams = cluster.run_phase(
        track_partition,
        tasks=2 * num_nodes,
        profile=profile,
        task_nodes=[task % num_nodes for task in range(2 * num_nodes)],
    )
    for stream in streams:
        if stream is None:
            continue
        side, node, distinct, sizes = stream
        all_keys.append(distinct)
        if fused:
            # The per-stream node id stays scalar until (and unless)
            # the merge below actually needs it expanded.
            stream_nodes.append(node)
            stream_sizes.append(sizes)
            if side == "R":
                r_entries += len(distinct)
        else:
            all_nodes.append(np.full(len(distinct), node, dtype=np.int64))
            all_sizes[side].append(sizes)
            all_sizes["S" if side == "R" else "R"].append(
                np.zeros(len(distinct), dtype=np.float64)
            )

    # Drain the tracking inboxes (size-only messages reach them only
    # under a fault plan; the union table below is the
    # logically-equivalent global state).
    for _node, _messages in cluster.network.deliver_all():
        pass

    if not all_keys:
        empty = np.empty(0, dtype=np.int64)
        return TrackingTable(empty, empty, empty.astype(float), empty.astype(float), empty, empty)

    if fused:
        # Merge without the zero-padded mirror columns: concatenate one
        # size stream per (side, node), group by (key, node), and sum
        # each side's stream slice into its group with bincount.  Every
        # group receives at most one nonzero contribution per side, so
        # the sums are bit-identical to the padded reduceat form.
        sizes = np.concatenate(stream_sizes)
        # (key, node) lex order via one stable argsort of the packed
        # composite — identical permutation to lexsort((nodes, keys))
        # since nodes < num_nodes, and much faster because the streams
        # are concatenated sorted runs, which timsort's run detection
        # merges without a full sort.  Fall back for keys that overflow
        # the packing.  Each distinct stream is sorted, so its min/max
        # are its endpoints — no full scan.
        min_key = min(int(d[0]) for d in all_keys)
        max_key = max(int(d[-1]) for d in all_keys)
        if min_key >= 0 and max_key < (1 << 62) // num_nodes:
            # Pack per stream: the full keys/nodes entry columns are
            # never materialized, saving their concatenations.  A 32-bit
            # composite halves the sort's value traffic when it fits;
            # the argsort permutation is identical either way.
            if (max_key + 1) * num_nodes <= (1 << 31):
                composite = np.concatenate(
                    [
                        d.astype(np.int32) * num_nodes + n
                        for d, n in zip(all_keys, stream_nodes)
                    ]
                )
            else:
                composite = np.concatenate(
                    [d * num_nodes + n for d, n in zip(all_keys, stream_nodes)]
                )
            # The streams are concatenated sorted runs; timsort's run
            # detection merges them faster than a radix sort here.
            order = np.argsort(composite, kind="stable")
            # The packed composite is injective, so grouping and the
            # merged (key, node) columns all come from its sorted form —
            # one gather instead of separately sorting keys and nodes.
            comp_sorted = composite[order]
            is_new = np.empty(len(comp_sorted), dtype=bool)
            is_new[0] = True
            np.not_equal(comp_sorted[1:], comp_sorted[:-1], out=is_new[1:])
            starts = np.flatnonzero(is_new)
            comp_starts = comp_sorted[starts]
            if num_nodes & (num_nodes - 1) == 0:
                # Power-of-two node counts unpack with shift/mask —
                # exact for the non-negative packed values.
                shift = num_nodes.bit_length() - 1
                merged_keys = comp_starts >> shift
                merged_nodes = comp_starts & (num_nodes - 1)
            else:
                merged_keys = comp_starts // num_nodes
                merged_nodes = comp_starts - merged_keys * num_nodes
            # Restore the table's int64 column contract (no-op copies
            # unless the 32-bit packing was taken).
            merged_keys = merged_keys.astype(np.int64, copy=False)
            merged_nodes = merged_nodes.astype(np.int64, copy=False)
        else:
            keys = np.concatenate(all_keys)
            nodes = np.concatenate(
                [
                    np.full(len(d), n, dtype=np.int64)
                    for d, n in zip(all_keys, stream_nodes)
                ]
            )
            order = np.lexsort((nodes, keys))
            keys = keys[order]
            nodes = nodes[order]
            is_new = np.empty(len(keys), dtype=bool)
            is_new[0] = True
            np.logical_or(
                keys[1:] != keys[:-1], nodes[1:] != nodes[:-1], out=is_new[1:]
            )
            starts = np.flatnonzero(is_new)
            merged_keys = keys[starts]
            merged_nodes = nodes[starts]
        # 1-based group ids skip the extra full-length subtraction; the
        # unused bin 0 is sliced away after the sums.
        group_of_entry = np.empty(len(order), dtype=np.int64)
        group_of_entry[order] = np.cumsum(is_new)
        merged_r = np.bincount(
            group_of_entry[:r_entries],
            weights=sizes[:r_entries],
            minlength=len(starts) + 1,
        )[1:]
        merged_s = np.bincount(
            group_of_entry[r_entries:],
            weights=sizes[r_entries:],
            minlength=len(starts) + 1,
        )[1:]
    else:
        keys = np.concatenate(all_keys)
        nodes = np.concatenate(all_nodes)
        size_r = np.concatenate(all_sizes["R"])
        size_s = np.concatenate(all_sizes["S"])

        # Merge R and S entries of the same (key, node) into union rows.
        order = np.lexsort((nodes, keys))
        keys, nodes, size_r, size_s = keys[order], nodes[order], size_r[order], size_s[order]
        is_new = np.empty(len(keys), dtype=bool)
        is_new[0] = True
        np.logical_or(keys[1:] != keys[:-1], nodes[1:] != nodes[:-1], out=is_new[1:])
        starts = np.flatnonzero(is_new)
        merged_keys = keys[starts]
        merged_nodes = nodes[starts]
        merged_r = np.add.reduceat(size_r, starts)
        merged_s = np.add.reduceat(size_s, starts)

    key_starts = segment_boundaries(merged_keys)
    t_nodes = hash_partition(merged_keys[key_starts], num_nodes, spec.hash_seed)

    # Receiving T nodes merge the incoming sorted (key, count) streams.
    entry_bytes = key_width + spec.count_width_r  # footprint per union entry
    entries_per_key = np.diff(np.append(key_starts, len(merged_keys)))
    if fused and float(entry_bytes).is_integer():
        # count x width instead of summing a constant per entry: exact
        # for integer widths (every partial sum is an exact integer far
        # below 2**53), and skips the 1:1 repeat expansion.
        per_tnode = (
            np.bincount(
                t_nodes,
                weights=entries_per_key.astype(np.float64),
                minlength=num_nodes,
            )
            * entry_bytes
        )
    else:
        per_tnode = np.bincount(
            np.repeat(t_nodes, entries_per_key),
            weights=np.full(len(merged_keys), entry_bytes),
            minlength=num_nodes,
        )
    profile.add_cpu("Merge recv. key, count", "merge", per_tnode)

    return TrackingTable(
        keys=merged_keys,
        nodes=merged_nodes,
        size_r=merged_r,
        size_s=merged_s,
        key_starts=key_starts,
        t_nodes=t_nodes,
    )
