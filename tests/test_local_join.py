"""Unit and property tests for the node-local join kernels."""

from __future__ import annotations

import os
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.joins.local import (
    _DENSE_SPAN_FACTOR,
    _dense_span,
    distinct_with_counts,
    join_indices,
    join_cardinality,
    local_join,
    match_mask,
)
from repro.parallel import chunks
from repro.storage import LocalPartition

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


def brute_force_pairs(keys_left, keys_right):
    return sorted(
        (i, j)
        for i in range(len(keys_left))
        for j in range(len(keys_right))
        if keys_left[i] == keys_right[j]
    )


class TestJoinIndices:
    def test_basic(self):
        left = np.array([1, 2, 2, 3])
        right = np.array([2, 2, 4])
        li, ri = join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_empty_sides(self):
        li, ri = join_indices(np.array([], dtype=np.int64), np.array([1, 2]))
        assert len(li) == 0
        li, ri = join_indices(np.array([1]), np.array([], dtype=np.int64))
        assert len(li) == 0

    def test_no_matches(self):
        li, ri = join_indices(np.array([1, 2]), np.array([3, 4]))
        assert len(li) == 0 and len(ri) == 0

    @given(
        st.lists(st.integers(0, 8), max_size=30),
        st.lists(st.integers(0, 8), max_size=30),
    )
    def test_matches_bruteforce(self, left_raw, right_raw):
        left = np.array(left_raw, dtype=np.int64)
        right = np.array(right_raw, dtype=np.int64)
        li, ri = join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == brute_force_pairs(left_raw, right_raw)

    @given(
        st.lists(st.integers(0, 20), max_size=50),
        st.lists(st.integers(0, 20), max_size=50),
    )
    def test_cardinality_matches_indices(self, left_raw, right_raw):
        left = np.array(left_raw, dtype=np.int64)
        right = np.array(right_raw, dtype=np.int64)
        li, _ = join_indices(left, right)
        assert join_cardinality(left, right) == len(li)


@st.composite
def probe_path_case(draw):
    """Left/right keys steered onto one of the four probe paths.

    ``dense`` puts the right key span at ``_DENSE_SPAN_FACTOR * rows +
    1024`` minus 0 or 1 (direct addressing), otherwise one past it
    (sorted index); ``unique`` decides between the single-probe and the
    run-length paths.  The span sits anywhere in the int64 range,
    including flush against either end.
    """
    dense = draw(st.booleans())
    unique = draw(st.booleans())
    distinct = draw(st.integers(2, 60))
    repeats = 0 if unique else draw(st.integers(1, 40))
    threshold = _DENSE_SPAN_FACTOR * (distinct + repeats) + 1024
    span = threshold - draw(st.integers(0, 1)) if dense else threshold + 1
    base = draw(
        st.one_of(
            st.integers(-(1 << 40), 1 << 40),
            st.just(INT64_MIN),
            st.just(INT64_MAX - span + 1),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Both span ends are always present, so the span is exact.
    inner = rng.choice(np.arange(1, span - 1), size=distinct - 2, replace=False)
    offsets = np.concatenate([[0, span - 1], inner])
    offsets = np.concatenate([offsets, rng.choice(offsets, size=repeats)])
    right = (base + offsets.astype(object)).astype(np.int64)
    rng.shuffle(right)
    hits = rng.choice(right, size=draw(st.integers(0, 80)))
    edges = (INT64_MIN, INT64_MAX, -1, 0, base - 1, base + span)
    misses = np.array([k for k in edges if INT64_MIN <= k <= INT64_MAX], dtype=np.int64)
    left = np.concatenate([hits, misses])
    rng.shuffle(left)
    if draw(st.booleans()):
        left = left[: draw(st.integers(0, 3))]
    return left, right, dense, unique


def _oracle_cardinality(left: np.ndarray, right: np.ndarray) -> int:
    """Independent count: sum over shared keys of left count × right count."""
    keys_l, counts_l = np.unique(left, return_counts=True)
    keys_r, counts_r = np.unique(right, return_counts=True)
    _, at_l, at_r = np.intersect1d(keys_l, keys_r, return_indices=True)
    return int((counts_l[at_l] * counts_r[at_r]).sum())


class TestJoinCardinality:
    @settings(max_examples=200, deadline=None)
    @given(probe_path_case(), st.booleans(), st.sampled_from([None, 1, 7, 64]))
    def test_count_matches_pairs_on_every_probe_path(self, case, prebuilt, chunk_rows):
        left, right, dense, unique = case
        partition = LocalPartition(keys=right)
        assert (_dense_span(int(right.min()), int(right.max()), len(right)) is not None) == dense
        assert (len(np.unique(right)) == len(right)) == unique
        if prebuilt:
            partition.key_index()
        env = {} if chunk_rows is None else {"REPRO_KERNEL_CHUNK_ROWS": str(chunk_rows)}
        with mock.patch.dict(os.environ, env), chunks.kernel_config(workers=2):
            pairs = len(join_indices(left, right, right_partition=partition)[0])
            count = join_cardinality(left, right, right_partition=partition)
        assert count == pairs == _oracle_cardinality(left, right)
        assert join_cardinality(left, right) == count

    def test_empty_sides(self):
        empty = np.array([], dtype=np.int64)
        keys = np.array([1, 2, 2], dtype=np.int64)
        assert join_cardinality(empty, keys, right_partition=LocalPartition(keys=keys)) == 0
        assert join_cardinality(keys, empty, right_partition=LocalPartition(keys=empty)) == 0
        assert join_cardinality(empty, empty) == 0

    def test_extreme_keys_dense_and_sparse(self):
        right = np.array([INT64_MAX, INT64_MAX - 1, INT64_MAX - 1], dtype=np.int64)
        left = np.array([INT64_MIN, INT64_MAX - 1, INT64_MAX, 0], dtype=np.int64)
        assert join_cardinality(left, right, right_partition=LocalPartition(keys=right)) == 3
        sparse = np.array([INT64_MIN, INT64_MAX, INT64_MIN], dtype=np.int64)
        assert join_cardinality(left, sparse) == 3

    def test_large_output_is_counted_without_building_it(self):
        keys = np.zeros(2000, dtype=np.int64)
        tracemalloc.start()
        try:
            count = join_cardinality(keys, keys, right_partition=LocalPartition(keys=keys))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 4_000_000
        # The 4M index pairs alone would take 64 MB.
        assert peak < 1 << 20


class TestLocalJoin:
    def test_prefixes_and_payloads(self):
        left = LocalPartition(keys=np.array([1, 2]), columns={"v": np.array([10, 20])})
        right = LocalPartition(keys=np.array([2, 2]), columns={"v": np.array([5, 6])})
        joined = local_join(left, right)
        assert set(joined.columns) == {"r.v", "s.v"}
        assert np.array_equal(np.sort(joined.columns["s.v"]), [5, 6])
        assert np.all(joined.columns["r.v"] == 20)
        assert np.all(joined.keys == 2)

    def test_cartesian_expansion(self):
        left = LocalPartition(keys=np.array([7, 7, 7]), columns={})
        right = LocalPartition(keys=np.array([7, 7]), columns={})
        assert local_join(left, right).num_rows == 6


class TestHelpers:
    def test_distinct_with_counts(self):
        keys, counts = distinct_with_counts(np.array([3, 1, 3, 3, 1]))
        assert np.array_equal(keys, [1, 3])
        assert np.array_equal(counts, [2, 3])

    def test_match_mask(self):
        mask = match_mask(np.array([1, 5, 9]), np.array([5, 6]))
        assert mask.tolist() == [False, True, False]

    def test_match_mask_empty_probe(self):
        assert not match_mask(np.array([1, 2]), np.array([], dtype=np.int64)).any()
