"""Shared machinery of the exchange operators.

Every distributed operator in the library moves data through the same
handful of communication patterns — hash scatter, replication, directed
(location-driven) sends, consolidation, and barrier drains.  The classes
in :mod:`repro.exchange` package those patterns as first-class
*exchange operators*; this module holds what they share — one call per
sending task and message class, never one per message:

- :func:`send_split` — the per-destination batch list produced by
  ``LocalPartition.split_by``/``hash_split`` sent as one row, wire size
  ``rows × width`` per batch;
- :func:`send_to` — one row with explicit destinations and sizes,
  optionally size-only (accounting messages whose content the
  simulation reconstructs from shared state).

Both account the row on the profile with
:meth:`~repro.timing.profile.ExecutionProfile.add_net_row`: local sends
are "Local copy ..." steps, remote sends are network-transfer steps (the
paper separates the two in Tables 3-4).  All sends go through
:meth:`Network.send_batches`, so inside an open cluster phase they are
staged in the calling task's :class:`~repro.cluster.network.SendLane`
and committed deterministically at the barrier — exchange operators
never bypass the staging contract.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile

__all__ = ["send_split", "send_to"]


def send_to(
    cluster: Cluster,
    profile: ExecutionProfile,
    category: MessageClass,
    src: int,
    dsts,
    nbytes,
    transfer_step: str,
    local_step: str | None,
    payloads: Sequence[Any] | None = None,
) -> None:
    """Send one row of explicit ``(dst, nbytes)`` entries from ``src``.

    ``payloads`` is parallel to ``dsts``, or ``None`` for a size-only
    row.  With ``local_step=None`` self-sends are accounted on the
    ledger but not on the profile.
    """
    dsts, nbytes = cluster.network.send_batches(
        src, category, payloads, dsts=dsts, nbytes=nbytes
    )
    profile.add_net_row(transfer_step, local_step, src, dsts, nbytes)


def send_split(
    cluster: Cluster,
    profile: ExecutionProfile,
    category: MessageClass,
    src: int,
    batches: Sequence[LocalPartition | None],
    width: float,
    transfer_step: str,
    local_step: str,
    payload_of: Callable[[LocalPartition], Any] | None = None,
) -> None:
    """Send one scatter's per-destination batch list as one row.

    ``batches`` is indexed by destination node (the shape produced by
    ``LocalPartition.split_by``); ``None`` entries are skipped.  With
    ``payload_of`` the wire payload is derived from each batch (e.g. the
    MapReduce engine tags batches with their channel name); otherwise
    batches travel zero-copy.
    """
    if payload_of is None:
        dsts, nbytes = cluster.network.send_batches(src, category, batches, width)
        profile.add_net_row(transfer_step, local_step, src, dsts, nbytes)
        return
    present = [dst for dst, batch in enumerate(batches) if batch is not None]
    rows = np.array([batches[dst].num_rows for dst in present], dtype=np.float64)
    send_to(
        cluster, profile, category, src, present, rows * width,
        transfer_step, local_step,
        payloads=[payload_of(batches[dst]) for dst in present],
    )
