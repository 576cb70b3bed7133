"""Public testing utilities for downstream users of the library.

Anyone extending the library with a new distributed join needs the
same checks the internal suite uses everywhere: *build comparable
tables quickly*, *assert two algorithms produced the identical output
multiset*, and *compare an output against an independent oracle*.
These helpers are exported so extensions can reuse them instead of
re-deriving canonicalization logic.
"""

from __future__ import annotations

import numpy as np

from .cluster.cluster import Cluster
from .joins.base import JoinResult
from .storage.placement import random_uniform
from .storage.schema import Schema
from .storage.table import DistributedTable

__all__ = ["scatter_tables", "canonical_output", "reference_join", "assert_same_output"]


def scatter_tables(
    cluster: Cluster,
    keys_r: np.ndarray,
    keys_s: np.ndarray,
    payload_bits_r: int = 64,
    payload_bits_s: int = 128,
    seed: int = 0,
) -> tuple[DistributedTable, DistributedTable]:
    """Scatter two key arrays uniformly over a cluster with rid payloads.

    Each table carries a ``rid`` column identifying its original rows,
    which is what makes outputs comparable across algorithms.
    """
    schema_r = Schema.with_widths(32, payload_bits_r)
    schema_s = Schema.with_widths(32, payload_bits_s)
    table_r = cluster.table_from_assignment(
        "R",
        schema_r,
        np.asarray(keys_r, dtype=np.int64),
        random_uniform(len(keys_r), cluster.num_nodes, seed=seed * 2 + 1),
    )
    table_s = cluster.table_from_assignment(
        "S",
        schema_s,
        np.asarray(keys_s, dtype=np.int64),
        random_uniform(len(keys_s), cluster.num_nodes, seed=seed * 2 + 2),
    )
    return table_r, table_s


def canonical_output(result: JoinResult) -> np.ndarray:
    """Sorted ``(key, r.rid, s.rid)`` matrix of a join result.

    Requires the inputs to have carried ``rid`` payload columns (as
    :func:`scatter_tables` produces).
    """
    output = result.gathered_output()
    matrix = np.stack(
        [output.keys, output.columns["r.rid"], output.columns["s.rid"]]
    )
    order = np.lexsort(matrix)
    return matrix[:, order]


def reference_join(table_r: DistributedTable, table_s: DistributedTable) -> np.ndarray:
    """Brute-force equi-join oracle in the shape of :func:`canonical_output`.

    A pure-Python dictionary join over every partition's ``(key, rid)``
    rows, sharing no code with the library's join kernels: it is the
    row oracle distributed operators are checked against.  Both tables
    must carry ``rid`` columns (as :func:`scatter_tables` produces).
    """
    s_rids: dict[int, list[int]] = {}
    for partition in table_s.partitions:
        for key, rid in zip(partition.keys.tolist(), partition.columns["rid"].tolist()):
            s_rids.setdefault(key, []).append(rid)
    rows = [
        (key, r_rid, s_rid)
        for partition in table_r.partitions
        for key, r_rid in zip(partition.keys.tolist(), partition.columns["rid"].tolist())
        for s_rid in s_rids.get(key, ())
    ]
    matrix = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return matrix[:, np.lexsort(matrix)]


def assert_same_output(result_a: JoinResult, result_b: JoinResult) -> None:
    """Raise ``AssertionError`` unless both joins produced the same rows."""
    a = canonical_output(result_a)
    b = canonical_output(result_b)
    assert a.shape == b.shape, (
        f"{result_a.algorithm} produced {a.shape[1]} rows, "
        f"{result_b.algorithm} produced {b.shape[1]}"
    )
    assert np.array_equal(a, b), (
        f"{result_a.algorithm} and {result_b.algorithm} disagree on output rows"
    )
