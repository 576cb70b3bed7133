"""Wire-size accounting for track join's metadata messages.

Track join sends three kinds of metadata: tracking entries (key, and for
the 3/4-phase variants a match count), location messages (key, node)
directing selective broadcasts, and migration instructions (key,
destination).  Their sizes — and the Section 2.4 compression options
(delta-coded key streams, node-grouped location messages) — are defined
here so every variant accounts identically.
"""

from __future__ import annotations

import numpy as np

from ..encoding.delta import delta_encoded_size

__all__ = ["tracking_message_bytes", "location_message_bytes"]


def tracking_message_bytes(
    keys: np.ndarray,
    key_width: float,
    count_width: float,
    delta_keys: bool = False,
) -> float:
    """Size of one tracking message carrying ``keys`` (+ counts).

    With ``delta_keys`` the key stream is accounted at its sorted
    delta-varint size (track join imposes no message order, so senders
    may sort freely — Section 2.4).
    """
    if delta_keys:
        key_bytes = float(delta_encoded_size(keys))
    else:
        key_bytes = len(keys) * key_width
    return key_bytes + len(keys) * count_width


def location_message_bytes(
    num_pairs,
    num_distinct_nodes,
    key_width: float,
    location_width: float,
    group_by_node: bool = False,
):
    """Size of a message carrying (key, node) pairs.

    Plain form repeats the node id for every key.  The grouped form
    (Section 2.4: "sending many keys with a single node label after
    partitioning by node") pays each distinct node label once.
    ``num_pairs``/``num_distinct_nodes`` may be scalars or parallel
    integer arrays (one entry per message); the result has their shape.
    """
    if group_by_node:
        return num_pairs * key_width + num_distinct_nodes * location_width
    return num_pairs * (key_width + location_width)
