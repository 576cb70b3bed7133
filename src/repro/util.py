"""Shared numeric utilities: key hashing and segmented array operations.

The simulator routes tuples and scheduling work by hashing join keys, and
the vectorized schedule generator relies on segmented (group-by style)
reductions over sorted arrays.  Both live here so every subsystem hashes
and segments identically.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "hash_partition",
    "mix64",
    "stable_argsort_auto",
    "stable_argsort_bounded",
    "stable_sort_with_order",
    "segment_boundaries",
    "segment_sum",
    "segment_count",
    "segment_max_position",
    "segment_ids",
    "segmented_cartesian",
    "pack_composite_keys",
    "unpack_composite_keys",
]

# splitmix64 multiplication constants; the full finalizer is applied so that
# consecutive integer keys (common in synthetic workloads) spread uniformly
# across nodes instead of landing on ``key % N``.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def mix64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Apply the splitmix64 finalizer to an integer array.

    Parameters
    ----------
    values:
        Integer array; interpreted as unsigned 64-bit.
    seed:
        Optional stream selector so different routing decisions (e.g. hash
        join destinations vs. random shuffles) are decorrelated.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of well-mixed hash values.
    """
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _SPLITMIX_GAMMA * np.uint64(seed + 1)
        x ^= x >> np.uint64(30)
        x *= _MIX_1
        x ^= x >> np.uint64(27)
        x *= _MIX_2
        x ^= x >> np.uint64(31)
    return x


def hash_partition(keys: np.ndarray, num_nodes: int, seed: int = 0) -> np.ndarray:
    """Map each key to its hash-designated node in ``[0, num_nodes)``.

    This is the ``hash(k) mod N`` of the paper: it determines both the
    Grace hash join destination and the scheduling (``processT``) node of
    track join for every distinct key.
    """
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    mixed = mix64(keys, seed)
    if num_nodes & (num_nodes - 1) == 0:
        # Power-of-two cluster sizes mask instead of dividing; identical
        # values (x % 2**k == x & (2**k - 1) for unsigned x).
        return (mixed & np.uint64(num_nodes - 1)).astype(np.int64)
    return (mixed % np.uint64(num_nodes)).astype(np.int64)


def stable_argsort_bounded(values: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative ints known to be below ``upper``.

    Produces the exact permutation of ``np.argsort(values, kind="stable")``
    but casts to the narrowest sufficient unsigned dtype first, which lets
    numpy use radix sort (several times faster than mergesort on int64 for
    the destination arrays scatters sort, whose domain is ``num_nodes``).
    """
    if upper <= (1 << 8):
        return np.argsort(values.astype(np.uint8), kind="stable")
    if upper <= (1 << 16):
        return np.argsort(values.astype(np.uint16), kind="stable")
    if upper <= (1 << 32):
        return np.argsort(values.astype(np.uint32), kind="stable")
    return np.argsort(values, kind="stable")


def stable_argsort_auto(values: np.ndarray) -> np.ndarray:
    """Stable argsort that narrows the sort dtype from the value range.

    Produces the exact permutation of ``np.argsort(values, kind="stable")``:
    shifting by the minimum and casting to the narrowest sufficient
    unsigned dtype is a strictly monotonic transform, so ordering and
    stability are preserved while numpy's radix sort runs half (or
    fewer) passes.  The two O(n) range scans are far cheaper than the
    sort itself; values whose span needs 64 bits fall through to the
    plain stable argsort.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    lo = int(values.min())
    span = int(values.max()) - lo
    if span < (1 << 8):
        return np.argsort((values - lo).astype(np.uint8), kind="stable")
    if span < (1 << 16):
        return np.argsort((values - lo).astype(np.uint16), kind="stable")
    if span < (1 << 32):
        return np.argsort((values - lo).astype(np.uint32), kind="stable")
    return np.argsort(values, kind="stable")


def stable_sort_with_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(order, values[order])`` for a stable sort of ``values``.

    When the value span fits in 31 bits and there are fewer than 2**32
    rows, the shifted value and the row index are packed into one int64
    (value in the high bits, index in the low bits) and *value*-sorted:
    equal values then order by index, which is exactly stability, and a
    direct sort skips the indirect gather passes an argsort pays for —
    several times faster.  Unpacking recovers both the permutation and
    the sorted values.  Wider inputs fall back to
    :func:`stable_argsort_auto` plus a gather.  Either way the result
    is bit-identical to ``order = np.argsort(values, kind="stable")``
    and ``values[order]``.
    """
    n = len(values)
    if n == 0:
        empty_order = np.empty(0, dtype=np.int64)
        return empty_order, np.empty(0, dtype=values.dtype if hasattr(values, "dtype") else np.int64)
    lo = int(values.min())
    span = int(values.max()) - lo
    if span < (1 << 31) and n < (1 << 32):
        # Imported lazily: util is a leaf module for most of the
        # library and the chunk engine is only needed on this path.
        from .parallel import chunks

        slices = chunks.chunked_slices(n)
        if slices is None:
            packed = ((values - lo) << np.int64(32)) | np.arange(n, dtype=np.int64)
            packed.sort()
        else:
            # Chunked index build: pack per chunk, sort chunk slices in
            # parallel, merge.  The packed values are pairwise distinct
            # (unique index in the low bits), so the merged sequence is
            # the unique ascending order — bit-identical to the direct
            # in-place sort above for any chunk size or worker count.
            packed = chunks.chunked_build(
                lambda start, stop: (
                    (values[start:stop] - lo) << np.int64(32)
                )
                | np.arange(start, stop, dtype=np.int64),
                n,
                np.int64,
            )
            packed = chunks.chunked_sort_unique(packed)
        order = packed & np.int64(0xFFFFFFFF)
        sorted_values = ((packed >> np.int64(32)) + lo).astype(values.dtype, copy=False)
        return order, sorted_values
    order = stable_argsort_auto(values)
    return order, values[order]


def segment_boundaries(sorted_group_keys: np.ndarray) -> np.ndarray:
    """Return start offsets of each run of equal values in a sorted array.

    The returned array always starts with 0; an empty input yields an
    empty offsets array.  Offsets are suitable for ``np.add.reduceat``.
    """
    n = len(sorted_group_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(sorted_group_keys[1:], sorted_group_keys[:-1], out=change[1:])
    return np.flatnonzero(change).astype(np.int64)


def segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum ``values`` within segments given by ``starts`` offsets."""
    if len(starts) == 0:
        return np.empty(0, dtype=values.dtype)
    return np.add.reduceat(values, starts)


def segment_count(starts: np.ndarray, total: int) -> np.ndarray:
    """Length of each segment, given segment start offsets and total size."""
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    return np.diff(np.append(starts, total))


def segment_ids(starts: np.ndarray, total: int) -> np.ndarray:
    """Expand segment starts into a per-element segment index array."""
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ids = np.zeros(total, dtype=np.int64)
    ids[starts[1:]] = 1
    return np.cumsum(ids)


def segmented_cartesian(a_seg: np.ndarray, b_seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment cartesian product of two segment-sorted sequences.

    Given two arrays of (sorted, non-negative) segment ids, return index
    pairs ``(ia, ib)`` such that every element of ``a`` is paired with
    every element of ``b`` belonging to the same segment.  Used to
    expand per-key broadcaster/destination lists into location-message
    pairs.
    """
    if len(a_seg) == 0 or len(b_seg) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if bool((b_seg[1:] > b_seg[:-1]).all()):
        # Unique segments on the b side: every a element pairs with at
        # most one b element, so the expansion degenerates to a sorted
        # intersection.  Identical pairs in identical order either way.
        nseg = int(max(int(a_seg[-1]), int(b_seg[-1]))) + 1
        if nseg <= 4 * (len(a_seg) + len(b_seg)) + 1024:
            # Dense segment ids: a direct-address rank table turns the
            # intersection into one scatter and one gather, several
            # times faster than per-element binary search.
            b_rank = np.full(nseg, -1, dtype=np.int64)
            b_rank[b_seg] = np.arange(len(b_seg), dtype=np.int64)
            pos = b_rank[a_seg]
            ia = np.flatnonzero(pos >= 0)
            return ia, pos[ia]
        pos = np.searchsorted(b_seg, a_seg, side="left")
        clipped = np.minimum(pos, len(b_seg) - 1)
        found = b_seg[clipped] == a_seg
        ia = np.flatnonzero(found)
        return ia, clipped[ia]
    nseg = int(max(a_seg.max(), b_seg.max())) + 1
    count_b = np.bincount(b_seg, minlength=nseg)
    rep = count_b[a_seg]
    total = int(rep.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ia = np.repeat(np.arange(len(a_seg), dtype=np.int64), rep)
    b_start = np.cumsum(count_b) - count_b
    start_of_pair = np.repeat(b_start[a_seg], rep)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(rep) - rep, rep)
    ib = start_of_pair + within
    return ia, ib


def segment_max_position(values: np.ndarray, starts: np.ndarray, total: int) -> np.ndarray:
    """Position (global index) of the maximum of each segment.

    Ties resolve to the *first* position with the maximal value inside the
    segment, which makes schedule generation deterministic.
    """
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    seg = segment_ids(starts, total)
    maxima = np.maximum.reduceat(values, starts)
    is_max = values == maxima[seg]
    positions = np.flatnonzero(is_max)
    first_of_segment = segment_boundaries(seg[positions])
    return positions[first_of_segment]


def pack_composite_keys(columns: list[np.ndarray], bits: list[int]) -> np.ndarray:
    """Pack a multi-column join key into one int64 per row.

    The paper's ``wk`` covers "the join key columns used in conjunctive
    equality conditions" — multi-column keys.  The simulator routes by a
    single int64, so composite keys are bit-packed: column ``i`` gets
    ``bits[i]`` bits, most-significant first.  The packing is injective
    (equal packed values iff all columns equal), so every join algorithm
    works on composite keys unchanged; the schema still accounts the
    width of all key columns.

    Raises ``ValueError`` if the widths exceed 63 bits or any value
    overflows its column's width.
    """
    if len(columns) != len(bits):
        raise ValidationError(f"{len(columns)} columns but {len(bits)} widths")
    if not columns:
        raise ValidationError("composite key needs at least one column")
    if sum(bits) > 63:
        raise ValidationError(f"composite key of {sum(bits)} bits exceeds 63")
    packed = np.zeros(len(columns[0]), dtype=np.int64)
    for values, width in zip(columns, bits):
        values = np.asarray(values, dtype=np.int64)
        if len(values) != len(packed):
            raise ValidationError("key columns must have equal length")
        if width <= 0:
            raise ValidationError(f"column width must be positive, got {width}")
        if len(values) and (values.min() < 0 or values.max() >= (1 << width)):
            raise ValidationError(f"value out of range for a {width}-bit key column")
        packed = (packed << np.int64(width)) | values
    return packed


def unpack_composite_keys(packed: np.ndarray, bits: list[int]) -> list[np.ndarray]:
    """Inverse of :func:`pack_composite_keys`."""
    packed = np.asarray(packed, dtype=np.int64)
    columns: list[np.ndarray] = []
    remaining = packed.copy()
    for width in reversed(bits):
        mask = np.int64((1 << width) - 1)
        columns.append(remaining & mask)
        remaining >>= np.int64(width)
    return list(reversed(columns))
