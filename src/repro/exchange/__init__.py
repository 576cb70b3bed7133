"""Exchange operators: the communication layer of every distributed join.

The paper frames distributed joins as per-key transfer *schedules*
executed by a small set of generic move primitives (Sections 2.2-2.5).
This package makes those primitives first-class: each exchange operator
encapsulates one communication pattern — the send-lane staging, the
per-:class:`~repro.cluster.network.MessageClass` byte accounting, and
the profile attribution that the operators previously each hand-rolled.

=====================  =====================================================
Operator               Pattern
=====================  =====================================================
:class:`Shuffle`       hash scatter of full tuples (Grace hash join)
:class:`KeyShuffle`    hash scatter of keys with implicit rids (Sec 3.2)
:class:`Broadcast`     full replication of one side (``BJ-R``/``BJ-S``)
:func:`replicate_size` accounting-only broadcast of a fixed-size blob
:class:`SelectiveBroadcast`  location-directed tuple sends (Sec 2.2)
:class:`Migrate`       consolidation moves of 4-phase track join (Sec 2.5)
:class:`ShardedMigrate`  heavy-hitter splits across several destinations
:class:`LocationExchange`    (key, node) scheduler instruction streams
:class:`Gather`        barrier drains of per-node inboxes
=====================  =====================================================

All sends go through :meth:`Network.send_batches`, one row per sending
task and message class, so inside a cluster phase they stage in the
calling task's ``SendLane`` and commit
deterministically at the barrier — ledgers, profiles, and arrival
orders are bit-identical for any worker count.
"""

from .base import send_split, send_to
from .broadcast import Broadcast, replicate_size
from .gather import Gather, absorb_received, drain_category, drain_payloads, flush
from .locations import LocationExchange
from .migrate import Migrate, ShardedMigrate
from .selective import SelectiveBroadcast
from .shuffle import KeyShuffle, Shuffle

__all__ = [
    "Shuffle",
    "KeyShuffle",
    "Broadcast",
    "SelectiveBroadcast",
    "Migrate",
    "ShardedMigrate",
    "LocationExchange",
    "Gather",
    "send_split",
    "send_to",
    "replicate_size",
    "drain_category",
    "drain_payloads",
    "absorb_received",
    "flush",
]
