"""A minimal MapReduce engine over the simulated cluster (Section 6).

The paper notes that generic distributed systems perform joins with
map/reduce operators, that network optimization there happens at coarse
granularity, and that "based on our non-pipelined implementation, track
join can be re-implemented for MapReduce" — fine-grained collocation
"tracking" on top of the framework's shuffles.  This engine exists to
make that claim executable.

It is a real (if small) MapReduce: per-node mappers emit keyed records,
a shuffle routes them by a partitioner (hash by default, custom for
track-join-style directed transfers), reducers see their partition
sorted by key, and reduce outputs can optionally be routed onward.
Shuffle traffic is accounted on the same ledger as the native
operators, so MapReduce and native implementations of the same
algorithm can be compared byte for byte.

Channels: one logical job may shuffle several record types (e.g. the R
and S sides of a join) with different wire widths; each channel has its
own mapper and accounting, and reducers receive all channels together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass, TrafficLedger
from ..errors import ValidationError
from ..exchange.base import send_split
from ..exchange.gather import drain_payloads
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import hash_partition

__all__ = ["Channel", "MapReduceJob", "MapReduceResult"]

#: A mapper: (node, input partition) -> keyed records.
Mapper = Callable[[int, LocalPartition], LocalPartition]
#: A partitioner: record keys -> destination node per record, or an
#: expanding (record_index, destination) pair of arrays for one-to-many
#: routing (selective broadcast).
Partitioner = Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, np.ndarray]"]
#: A reducer: (node, {channel: sorted records}) -> output records.
Reducer = Callable[[int, dict[str, LocalPartition]], LocalPartition]
#: A router for reduce outputs: (node, outputs) -> (record_idx, dest).
OutputRouter = Callable[[int, LocalPartition], tuple[np.ndarray, np.ndarray]]


@dataclass
class Channel:
    """One record stream of a MapReduce job.

    Parameters
    ----------
    name:
        Channel label; reducers receive records grouped under it.
    inputs:
        Per-node input partitions (length = cluster size).
    mapper:
        Emits keyed records from one node's input.
    record_width:
        Wire bytes per shuffled record.
    partitioner:
        Destination choice; defaults to hash-of-key.
    partition_column:
        Alternative to ``partitioner``: route each record to the node
        stored in this mapped column (how custom partitioners receive
        side data in real frameworks).
    category:
        Message class the shuffle bytes are accounted under.
    """

    name: str
    inputs: list[LocalPartition]
    mapper: Mapper
    record_width: float
    partitioner: Partitioner | None = None
    partition_column: str | None = None
    category: MessageClass = MessageClass.RIDS


@dataclass
class MapReduceResult:
    """Reduce outputs per node plus the job's accounting."""

    outputs: list[LocalPartition]
    traffic: TrafficLedger
    profile: ExecutionProfile

    @property
    def network_bytes(self) -> float:
        """Bytes the job's shuffles moved."""
        return self.traffic.total_bytes

    def gathered(self) -> LocalPartition:
        """All outputs as one partition."""
        return LocalPartition.concat(self.outputs)


class MapReduceJob:
    """One map -> shuffle -> sort -> reduce round over the cluster."""

    def __init__(
        self,
        channels: list[Channel],
        reducer: Reducer,
        output_router: OutputRouter | None = None,
        output_width: float = 0.0,
        output_category: MessageClass = MessageClass.RIDS,
        hash_seed: int = 0,
    ):
        self.channels = channels
        self.reducer = reducer
        self.output_router = output_router
        self.output_width = output_width
        self.output_category = output_category
        self.hash_seed = hash_seed

    # -- phases ----------------------------------------------------------

    def _shuffle_channel(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        channel: Channel,
    ) -> None:
        """Run map + shuffle for one channel (one task per mapper node)."""

        def map_node(node: int) -> None:
            mapped = channel.mapper(node, channel.inputs[node])
            profile.add_cpu_at(
                f"Map {channel.name}",
                "partition",
                node,
                mapped.num_rows * channel.record_width,
            )
            if mapped.num_rows == 0:
                return
            if channel.partition_column is not None:
                routed = mapped.columns[channel.partition_column].astype(np.int64)
            elif channel.partitioner is None:
                routed = hash_partition(mapped.keys, cluster.num_nodes, self.hash_seed)
            else:
                routed = channel.partitioner(mapped.keys)
            if isinstance(routed, tuple):
                record_idx, destinations = routed
                mapped = mapped.take(np.asarray(record_idx, dtype=np.int64))
                destinations = np.asarray(destinations, dtype=np.int64)
            else:
                destinations = np.asarray(routed, dtype=np.int64)
                if len(destinations) != mapped.num_rows:
                    raise ValidationError(
                        f"partitioner of channel {channel.name!r} returned "
                        f"{len(destinations)} destinations for {mapped.num_rows} records"
                    )
            batches = mapped.split_by(destinations, cluster.num_nodes)
            send_split(
                cluster, profile, channel.category, node, batches,
                channel.record_width,
                f"Shuffle {channel.name}", f"Local copy {channel.name}",
                payload_of=lambda batch: (channel.name, batch),
            )

        cluster.run_phase(map_node, profile=profile)

    def run(self, cluster: Cluster) -> MapReduceResult:
        """Execute the job; resets the cluster's ledger first."""
        cluster.reset()
        profile = ExecutionProfile(cluster.num_nodes)
        for channel in self.channels:
            self._shuffle_channel(cluster, profile, channel)

        # Barrier: collect shuffled records per node and channel, then
        # sort + reduce — one task per reducer node.
        widths = {channel.name: channel.record_width for channel in self.channels}
        channel_names = [channel.name for channel in self.channels]

        def reduce_node(node: int) -> LocalPartition:
            received: dict[str, list[LocalPartition]] = {
                name: [] for name in channel_names
            }
            for message in cluster.network.deliver(node):
                channel_name, batch = message.payload
                received[channel_name].append(batch)
            groups: dict[str, LocalPartition] = {}
            for name, batches in received.items():
                merged = LocalPartition.concat(batches) if batches else LocalPartition.empty()
                if merged.num_rows:
                    order = np.argsort(merged.keys, kind="stable")
                    merged = merged.take(order)
                profile.add_cpu_at(
                    f"Sort {name}", "sort", node, merged.num_rows * widths[name]
                )
                groups[name] = merged
            output = self.reducer(node, groups)
            profile.add_cpu_at(
                "Reduce", "merge", node, output.num_rows * max(self.output_width, 1.0)
            )
            return output

        outputs = cluster.run_phase(reduce_node, profile=profile)

        if self.output_router is not None:
            outputs = self._route_outputs(cluster, profile, outputs)

        return MapReduceResult(
            outputs=outputs,
            traffic=cluster.network.reset_ledger(),
            profile=profile,
        )

    def _route_outputs(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        outputs: list[LocalPartition],
    ) -> list[LocalPartition]:
        """Optionally forward reduce outputs to chosen nodes."""

        def route_node(node: int) -> None:
            record_idx, destinations = self.output_router(node, outputs[node])
            record_idx = np.asarray(record_idx, dtype=np.int64)
            destinations = np.asarray(destinations, dtype=np.int64)
            # The routed expansion and the per-destination selection fuse
            # into one gather.
            batches = outputs[node].split_by(
                destinations, cluster.num_nodes, rows=record_idx
            )
            send_split(
                cluster, profile, self.output_category, node, batches,
                self.output_width,
                "Route reduce output", "Local copy routed output",
                payload_of=lambda batch: ("__out__", batch),
            )

        cluster.run_phase(route_node, profile=profile)

        def collect_node(node: int) -> LocalPartition:
            batches = [payload[1] for payload in drain_payloads(cluster, node)]
            return LocalPartition.concat(batches) if batches else LocalPartition.empty()

        return cluster.run_phase(collect_node, profile=profile)
