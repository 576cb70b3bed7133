"""Node-local join kernels.

Every distributed algorithm in the library ends with (or is built from)
node-local equi-joins between key arrays.  The kernel here is a
vectorized sort/merge join with full cartesian expansion per key — the
same local strategy as the paper's implementation, which uses MSB radix
sort followed by merge-join for all local joins.

The kernels accept an optional cached :class:`~repro.storage.table.KeyIndex`
so a partition that participates in several phases (tracking, broadcast
matching, final merge-join) is sorted once and probed many times.

The probe side is chunk-parallel: the right side's lookup structure
(direct-address table or sorted index) is built once on the calling
thread, then left-key chunks probe it concurrently through
:mod:`repro.parallel.chunks`.  Every probe path emits its pairs
in ascending left order, so concatenating per-chunk results in chunk
order reproduces the serial output bit for bit.

:func:`join_cardinality` runs the same dispatch with every probe path
counting instead of emitting pairs: the final joins of runs that do not
materialize their output (``JoinSpec.materialize=False``) use it in
place of :func:`local_join`.
"""

from __future__ import annotations

import threading

import numpy as np

from ..parallel import chunks
from ..storage.table import KeyIndex, LocalPartition
from ..util import segment_boundaries, segment_count

__all__ = [
    "join_indices",
    "local_join",
    "join_cardinality",
    "concat_join_side",
    "distinct_with_counts",
    "match_mask",
]


#: Direct addressing is attempted when the right key range is at most
#: this many times the right row count (plus slack for tiny inputs).
_DENSE_SPAN_FACTOR = 32
#: Hard cap on the scratch lookup tables (entries).
_DENSE_SPAN_CAP = 1 << 27

#: Reusable lookup scratch, one set per thread: phase workers run local
#: joins concurrently, and a shared table would let one thread's scatter
#: corrupt another's probe.  Chunked probes are safe against the owning
#: thread's scratch because the tables are read-only while kernel
#: subtasks probe them: build and reset both happen on the calling
#: thread, before and after the chunk dispatch.
_dense_tls = threading.local()


def _dense_span(keys_right_min: int, keys_right_max: int, rows: int) -> int | None:
    """Admissible direct-address span, or ``None`` when too sparse."""
    span = keys_right_max - keys_right_min + 1
    if span > min(_DENSE_SPAN_FACTOR * rows + 1024, _DENSE_SPAN_CAP):
        return None
    return span


def _scratch(name: str, span: int, fill, dtype) -> np.ndarray:
    """Thread-local scratch table of at least ``span`` entries.

    Every entry holds ``fill`` between calls, so a call only pays to
    scatter its own entries in and back out instead of clearing the
    whole table.
    """
    table = getattr(_dense_tls, name, None)
    if table is None or len(table) < span:
        table = np.full(
            max(span, 2 * len(table) if table is not None else 0), fill, dtype=dtype
        )
        setattr(_dense_tls, name, table)
    return table[:span]


def _probe_in_chunks(probe, n_left: int, count: bool):
    """Dispatch ``probe(start, stop)`` over left-key chunks.

    ``probe`` returns ``(left_idx, right_idx)`` with *global* left
    indices for the given slice, or — when ``count`` — the slice's
    number of matches.  All probe paths emit pairs in ascending left
    order, so per-chunk results concatenated in chunk order equal the
    serial ``probe(0, n_left)`` bit for bit; counts simply add up.
    """
    slices = chunks.chunked_slices(n_left)
    if slices is None:
        return probe(0, n_left)
    parts = chunks.run_chunks(lambda bounds: probe(bounds[0], bounds[1]), slices)
    if count:
        return sum(parts)
    return (
        np.concatenate([left for left, _ in parts]),
        np.concatenate([right for _, right in parts]),
    )


def _dense_unique_join(keys_left: np.ndarray, keys_right: np.ndarray, count: bool):
    """Direct-address probe for dense, duplicate-free right keys.

    When the right key range is close to the right cardinality, one
    scatter into a positional lookup table plus one gather replaces
    both the sort and the binary search.  Returns the exact arrays the
    sorted unique-right path would produce (the hit count when
    ``count``), or ``None`` when the keys are too sparse or contain
    duplicates.
    """
    base = int(keys_right.min())
    span = _dense_span(base, int(keys_right.max()), len(keys_right))
    if span is None:
        return None
    lookup = _scratch("scratch", span, -1, np.int32)
    shifted_right = keys_right - base
    right_ids = np.arange(len(keys_right), dtype=np.int32)
    lookup[shifted_right] = right_ids
    # Duplicate right keys overwrite each other's slot; detecting the
    # mismatch on read-back is one small gather instead of a scan of
    # the whole span.
    if not bool((lookup[shifted_right] == right_ids).all()):
        lookup[shifted_right] = -1
        return None

    def probe(start: int, stop: int):
        shifted = keys_left[start:stop] - base
        in_range = (shifted >= 0) & (shifted < span)
        candidate = lookup[np.where(in_range, shifted, 0)]
        hit = in_range & (candidate >= 0)
        if count:
            return int(np.count_nonzero(hit))
        left_idx = np.flatnonzero(hit)
        right_idx = candidate[left_idx].astype(np.int64)
        return left_idx + start, right_idx

    try:
        return _probe_in_chunks(probe, len(keys_left), count)
    finally:
        lookup[shifted_right] = -1


def _dense_indexed_join(
    keys_left: np.ndarray, order_right: np.ndarray, sorted_right: np.ndarray, count: bool
):
    """Direct-address probe against a sorted right index with duplicates.

    Run-start positions and run lengths of the sorted right keys scatter
    into two span-sized tables, replacing both binary searches of the
    general path with one gather each.  The emitted pairs match the
    searchsorted path exactly: for a present key the tables hold the
    ``lo`` offset and ``hi - lo`` count that path would compute, and the
    expansion enumerates the run in the same sorted-right order.  When
    ``count``, the match count is the sum of the gathered run lengths
    and the start table is never filled.  Returns ``None`` when the
    right keys are too sparse.
    """
    base = int(sorted_right[0])
    span = _dense_span(base, int(sorted_right[-1]), len(sorted_right))
    if span is None:
        return None
    run_starts = segment_boundaries(sorted_right)
    run_counts = segment_count(run_starts, len(sorted_right))
    distinct_shifted = sorted_right[run_starts] - base
    start_table = _scratch("run_starts", span, 0, np.int64)
    count_table = _scratch("run_counts", span, 0, np.int64)
    if not count:
        start_table[distinct_shifted] = run_starts
    count_table[distinct_shifted] = run_counts

    def probe(start: int, stop: int):
        chunk = keys_left[start:stop]
        shifted = chunk - base
        in_range = (shifted >= 0) & (shifted < span)
        safe = np.where(in_range, shifted, 0)
        counts = np.where(in_range, count_table[safe], 0)
        total = int(counts.sum())
        if count:
            return total
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        left_local = np.repeat(np.arange(len(chunk), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - (
            np.cumsum(counts) - counts
        )[left_local]
        right_idx = order_right[start_table[safe][left_local] + offsets]
        return left_local + start, right_idx

    try:
        return _probe_in_chunks(probe, len(keys_left), count)
    finally:
        count_table[distinct_shifted] = 0


def _probe_unique_sorted(
    keys_left: np.ndarray, order_right: np.ndarray, sorted_right: np.ndarray, count: bool
):
    """Single-probe path: each left key matches at most one right row,
    so one searchsorted plus an equality check replaces the
    lo/hi/repeat expansion machinery."""

    def probe(start: int, stop: int):
        chunk = keys_left[start:stop]
        lo = np.searchsorted(sorted_right, chunk, side="left")
        clipped = np.minimum(lo, len(sorted_right) - 1)
        hit = sorted_right[clipped] == chunk
        if count:
            return int(np.count_nonzero(hit))
        left_idx = np.flatnonzero(hit)
        right_idx = order_right[clipped[left_idx]]
        return left_idx + start, right_idx

    return _probe_in_chunks(probe, len(keys_left), count)


def _probe_general_sorted(
    keys_left: np.ndarray, order_right: np.ndarray, sorted_right: np.ndarray, count: bool
):
    """General sorted-probe path with per-key cartesian expansion.

    The expansion uses one ``repeat`` plus gathers by the expanded left
    id (``lo[left_local]`` rather than ``repeat(lo, counts)``), so the
    two widest materializations are cache-friendly gathers.
    """

    def probe(start: int, stop: int):
        chunk = keys_left[start:stop]
        lo = np.searchsorted(sorted_right, chunk, side="left")
        hi = np.searchsorted(sorted_right, chunk, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if count:
            return total
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        left_local = np.repeat(np.arange(len(chunk), dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - (
            np.cumsum(counts) - counts
        )[left_local]
        right_idx = order_right[lo[left_local] + offsets]
        return left_local + start, right_idx

    return _probe_in_chunks(probe, len(keys_left), count)


def join_indices(
    keys_left: np.ndarray,
    keys_right: np.ndarray,
    right_index: KeyIndex | None = None,
    right_partition: "LocalPartition | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``keys_left[i] == keys_right[j]``.

    Implements the cartesian product per key: a key appearing ``a`` times
    on the left and ``b`` times on the right yields ``a*b`` pairs, which
    is the semantics of the general equi-join the paper targets (no
    foreign-key assumptions).

    Parameters
    ----------
    right_index:
        Optional cached index of ``keys_right`` (it must have been built
        from the same array); reused instead of re-sorting.
    right_partition:
        Optional partition owning ``keys_right``; lets the probe first
        try direct addressing and only then build (and cache) the
        partition's key index.

    Returns
    -------
    (left_idx, right_idx)
        Parallel ``int64`` arrays; ``len`` equals the join output size.
    """
    keys_left = np.asarray(keys_left, dtype=np.int64)
    keys_right = np.asarray(keys_right, dtype=np.int64)
    if len(keys_left) == 0 or len(keys_right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return _probe(keys_left, keys_right, right_index, right_partition, count=False)


def _probe(
    keys_left: np.ndarray,
    keys_right: np.ndarray,
    right_index: KeyIndex | None,
    right_partition: "LocalPartition | None",
    count: bool,
):
    """Probe dispatch shared by :func:`join_indices` and :func:`join_cardinality`.

    Picks the cheapest lookup structure for the right side — a
    direct-address table when its keys are dense and unique, else its
    (cached) sorted index, probed by direct addressing when dense or by
    binary search otherwise — and returns the index pairs, or only
    their number when ``count``.  Both sides must be non-empty.
    """
    if right_index is None:
        dense = _dense_unique_join(keys_left, keys_right, count)
        if dense is not None:
            return dense
        if right_partition is not None:
            right_index = right_partition.key_index()
    if right_index is not None:
        order_right = right_index.order
        sorted_right = right_index.sorted_keys
        right_unique = right_index.unique
    else:
        order_right = np.argsort(keys_right, kind="stable")
        sorted_right = keys_right[order_right]
        right_unique = len(sorted_right) <= 1 or bool(
            (sorted_right[1:] != sorted_right[:-1]).all()
        )
    if right_unique:
        return _probe_unique_sorted(keys_left, order_right, sorted_right, count)
    dense = _dense_indexed_join(keys_left, order_right, sorted_right, count)
    if dense is not None:
        return dense
    return _probe_general_sorted(keys_left, order_right, sorted_right, count)


def local_join(
    left: LocalPartition,
    right: LocalPartition,
    left_prefix: str = "r.",
    right_prefix: str = "s.",
) -> LocalPartition:
    """Materialized equi-join of two local partitions.

    Output columns are the join key plus both sides' payload columns,
    name-prefixed to avoid collisions.  The right partition's cached
    key index is (built and) reused, so joining the
    same partition repeatedly never re-sorts it; payload gathers chunk
    over the output rows when kernel parallelism is on.
    """
    left_idx, right_idx = join_indices(left.keys, right.keys, right_partition=right)
    columns: dict[str, np.ndarray] = {}
    for name, values in left.columns.items():
        columns[left_prefix + name] = chunks.chunked_gather(values, left_idx)
    for name, values in right.columns.items():
        columns[right_prefix + name] = chunks.chunked_gather(values, right_idx)
    return LocalPartition(
        keys=chunks.chunked_gather(left.keys, left_idx), columns=columns
    )


def join_cardinality(
    keys_left: np.ndarray,
    keys_right: np.ndarray,
    right_partition: "LocalPartition | None" = None,
) -> int:
    """Output size of the equi-join without materializing index pairs.

    Runs the same probe dispatch as :func:`join_indices` — direct
    addressing for dense right keys, the (cached) sorted index of
    ``right_partition`` otherwise — but each probe path only counts its
    matches: a hit count against unique right keys, a sum of run
    lengths against duplicated ones.  Memory stays linear in the
    inputs, however large the output.  ``right_partition`` optionally
    names the partition owning ``keys_right`` so its key index is
    built once and reused.
    """
    keys_left = np.asarray(keys_left, dtype=np.int64)
    keys_right = np.asarray(keys_right, dtype=np.int64)
    if len(keys_left) == 0 or len(keys_right) == 0:
        return 0
    return _probe(keys_left, keys_right, None, right_partition, count=True)


def concat_join_side(parts: list[LocalPartition], materialize: bool) -> LocalPartition:
    """Non-empty received batches as one join input; keys only when counting."""
    if materialize:
        return LocalPartition.concat(parts)
    return LocalPartition(keys=np.concatenate([p.keys for p in parts]))


def distinct_with_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of a partition with their local repeat counts.

    This is the tracking-phase projection: duplicates are redundant and
    eliminated before keys are sent to the scheduling nodes.
    """
    return np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)


def match_mask(
    keys: np.ndarray,
    probe: np.ndarray,
    probe_index: KeyIndex | None = None,
) -> np.ndarray:
    """Boolean mask of ``keys`` entries that appear in ``probe``.

    ``probe_index`` optionally supplies ``probe``'s cached sorted keys so
    repeated membership tests against one partition skip the sort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if len(probe) == 0:
        return np.zeros(len(keys), dtype=bool)
    if probe_index is not None:
        sorted_probe = probe_index.sorted_keys
    else:
        sorted_probe = np.sort(np.asarray(probe, dtype=np.int64))
    positions = np.searchsorted(sorted_probe, keys, side="left")
    positions = np.minimum(positions, len(sorted_probe) - 1)
    return sorted_probe[positions] == keys
