"""Distributed join interface: configuration, results, shared machinery.

Every algorithm (broadcast, Grace hash, tracking-aware hash, and the
three track join variants) implements :class:`DistributedJoin` and
returns a :class:`JoinResult` carrying the materialized output (or only
its size), the byte-exact traffic ledger, and the execution profile
used by the timing model.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass, field

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass, TrafficLedger
from ..encoding.base import Encoding
from ..encoding.dictionary import DictionaryEncoding
from ..errors import JoinConfigError, ValidationError
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile

__all__ = ["JoinSpec", "JoinResult", "DistributedJoin", "NodeOutputs"]

#: What :meth:`DistributedJoin._execute` returns: per-node output
#: partitions, or per-node output row counts under ``materialize=False``.
NodeOutputs = list[LocalPartition] | list[int]


@dataclass(frozen=True)
class JoinSpec:
    """Tunable parameters shared by all distributed joins.

    Parameters
    ----------
    encoding:
        Wire encoding used for every column (Figures 7-8 sweep this).
    location_width:
        ``M`` of the paper: bytes of a node identifier inside location
        and migration messages.  1 byte suffices for up to 256 nodes.
    count_width_r / count_width_s:
        Bytes of the per-node match counters carried by 3/4-phase
        tracking messages (the paper uses 1 byte for workload X, 2 for
        Y; counts that overflow are aggregated at the destination).
        All three widths must be finite and non-negative (integers are
        fine); anything else raises :class:`ValidationError` at
        construction.
    hash_seed:
        Seed of the key-hash that places scheduling/hash-join work.
    materialize:
        When False, every final join only counts its matches
        (:func:`~repro.joins.local.join_cardinality`): no index pairs,
        payload gathers or output partitions are built, and the result
        carries ``output_rows`` with ``output=None``.  Traffic, profile
        and modeled seconds are identical either way (large-scale
        traffic runs).
    group_locations:
        Section 2.4 optimization: batch location messages by node so
        the node id is amortized over many keys instead of repeated
        per key.
    delta_keys:
        Section 2.4 optimization: account tracking key streams at their
        sorted-delta-varint size instead of the plain key width.
    """

    encoding: Encoding = field(default_factory=DictionaryEncoding)
    location_width: float = 1.0
    count_width_r: float = 1.0
    count_width_s: float = 1.0
    hash_seed: int = 0
    materialize: bool = True
    group_locations: bool = False
    delta_keys: bool = False

    def __post_init__(self) -> None:
        for name in ("location_width", "count_width_r", "count_width_s"):
            value = getattr(self, name)
            if (
                not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValidationError(
                    f"JoinSpec.{name} must be a finite, non-negative byte width, "
                    f"got {value!r}"
                )


@dataclass
class JoinResult:
    """Outcome of one distributed join execution."""

    algorithm: str
    output_rows: int
    output: list[LocalPartition] | None
    traffic: TrafficLedger
    profile: ExecutionProfile

    @property
    def network_bytes(self) -> float:
        """Total bytes that crossed the network."""
        return self.traffic.total_bytes

    def class_bytes(self, category: MessageClass) -> float:
        """Bytes of one message class (for stacked-bar reproductions)."""
        return self.traffic.class_bytes(category)

    def breakdown(self) -> dict[str, float]:
        """Traffic by message class, keyed by class value."""
        return self.traffic.breakdown()

    def network_gb(self, scale: float = 1.0) -> float:
        """Traffic in GB, optionally scaled up to paper-size cardinality."""
        return self.network_bytes * scale / 1e9

    def node_balance(self) -> dict[str, float]:
        """Send/receive imbalance diagnostics (Section 5 future work)."""
        sent = self.traffic.sent_by_node
        received = self.traffic.received_by_node
        max_sent = max(sent.values(), default=0.0)
        mean_sent = (sum(sent.values()) / len(sent)) if sent else 0.0
        max_recv = max(received.values(), default=0.0)
        mean_recv = (sum(received.values()) / len(received)) if received else 0.0
        return {
            "max_sent": max_sent,
            "mean_sent": mean_sent,
            "send_skew": (max_sent / mean_sent) if mean_sent else 1.0,
            "max_received": max_recv,
            "mean_received": mean_recv,
            "receive_skew": (max_recv / mean_recv) if mean_recv else 1.0,
        }

    def gathered_output(self) -> LocalPartition:
        """All output rows as one partition (verification aid)."""
        if self.output is None:
            raise JoinConfigError(
                f"{self.algorithm} ran with materialize=False; no output rows kept"
            )
        return LocalPartition.concat(self.output)


class DistributedJoin(abc.ABC):
    """Base class of all distributed equi-join operators."""

    #: Short identifier used in reports ("HJ", "2TJ-R", "4TJ", ...).
    name: str = "abstract"

    def run(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec | None = None,
    ) -> JoinResult:
        """Execute the join on ``cluster`` and return its result.

        The cluster's scratch state and traffic ledger are reset first,
        so the returned ledger contains exactly this join's traffic.
        """
        spec = spec or JoinSpec()
        cluster.check_table(table_r)
        cluster.check_table(table_s)
        cluster.reset()
        profile = ExecutionProfile(cluster.num_nodes)
        output = self._execute(cluster, table_r, table_s, spec, profile)
        if cluster.network.pending_messages():
            raise JoinConfigError(
                f"{self.name}: {cluster.network.pending_messages()} messages "
                "left undelivered after the join"
            )
        if spec.materialize:
            partitions = output
            output_rows = sum(p.num_rows for p in partitions)
        else:
            partitions = None
            output_rows = int(sum(output))
        profile.record_network_load(cluster.network.ledger)
        return JoinResult(
            algorithm=self.name,
            output_rows=output_rows,
            output=partitions,
            traffic=cluster.network.reset_ledger(),
            profile=profile,
        )

    @abc.abstractmethod
    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> NodeOutputs:
        """Algorithm body; returns one output entry per node.

        With ``spec.materialize`` each entry is the node's output
        partition.  Without it each entry is the node's exact output
        row count, computed by a counting final join that builds no
        index pairs or payload columns; :meth:`run` sums the counts.
        Traffic and profile steps must not depend on the setting.

        Communication happens through the exchange operators
        (:mod:`repro.exchange`), which carry the send-lane staging, byte
        accounting, and profile attribution shared by every algorithm.
        """
