"""Distributed tables: per-node numpy partitions of keys and payloads.

A :class:`DistributedTable` is the input format of every join in the
library: the rows of a relation split arbitrarily across ``N`` nodes
(the paper makes no assumption about favorable pre-existing placement).
Each node's fragment is a :class:`LocalPartition` holding the join key
as an ``int64`` array plus any number of named payload columns.

Payload columns are carried as real numpy arrays so joins physically
move and materialize data; the *wire width* of those columns is defined
by the table's :class:`~repro.storage.schema.Schema` together with an
encoding, which is what the traffic ledger accounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlacementError, SchemaError
from ..parallel.chunks import (
    chunked_argsort_bounded,
    chunked_build,
    chunked_gather,
)
from ..util import (
    hash_partition,
    segment_boundaries,
    segment_count,
    stable_argsort_bounded,
    stable_sort_with_order,
)
from .schema import Schema

__all__ = ["KeyIndex", "ScatterPlan", "LocalPartition", "DistributedTable"]

#: ``distinct_with_counts`` switches to a sort-free bincount when the key
#: span is at most this many times the row count (bounds the counts table).
_DISTINCT_DENSE_FACTOR = 4


class KeyIndex:
    """Cached sort order of one partition's join keys.

    Built lazily by :meth:`LocalPartition.key_index` and reused by every
    phase that would otherwise re-sort the same keys (tracking dedup,
    broadcast matching, final merge-joins).
    """

    __slots__ = ("order", "sorted_keys", "_unique")

    def __init__(self, order: np.ndarray, sorted_keys: np.ndarray, unique: bool | None = None):
        #: Stable argsort of the partition's keys.
        self.order = order
        #: ``keys[order]`` — the keys in non-decreasing order.
        self.sorted_keys = sorted_keys
        self._unique = unique

    @property
    def unique(self) -> bool:
        """True when no key occurs twice (enables single-probe join lookups).

        Computed lazily on first use so building an index never pays for
        a duplicate scan the consumer may not need.
        """
        if self._unique is None:
            sorted_keys = self.sorted_keys
            self._unique = len(sorted_keys) <= 1 or bool(
                (sorted_keys[1:] != sorted_keys[:-1]).all()
            )
        return self._unique


@dataclass(frozen=True)
class ScatterPlan:
    """Cached routing of one partition's rows to destination buckets."""

    #: Destination bucket of every row.
    destinations: np.ndarray
    #: Row order grouping rows by destination (stable within a bucket).
    order: np.ndarray
    #: ``num_buckets + 1`` offsets into ``order`` delimiting each bucket.
    bounds: np.ndarray


@dataclass
class LocalPartition:
    """One node's fragment of a distributed table."""

    keys: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys, dtype=np.int64)
        for name, values in self.columns.items():
            values = np.asarray(values)
            if len(values) != len(self.keys):
                raise SchemaError(
                    f"column {name!r} has {len(values)} rows, keys have {len(self.keys)}"
                )
            self.columns[name] = values
        self._cache_keys: np.ndarray | None = None
        self._key_index: KeyIndex | None = None
        self._distinct: tuple[np.ndarray, np.ndarray] | None = None
        self._scatter_plans: dict[tuple, ScatterPlan] = {}

    @property
    def num_rows(self) -> int:
        """Number of tuples stored on this node."""
        return len(self.keys)

    def take(self, indices: np.ndarray) -> "LocalPartition":
        """Row subset (or permutation/expansion) selected by ``indices``.

        Gathers run through :func:`~repro.parallel.chunks.chunked_gather`
        — chunked over the index array when kernel parallelism is on,
        a plain ``values[indices]`` otherwise; the output is
        bit-identical either way.
        """
        return LocalPartition(
            keys=chunked_gather(self.keys, indices),
            columns={
                name: chunked_gather(values, indices)
                for name, values in self.columns.items()
            },
        )

    def copy(self) -> "LocalPartition":
        """Deep copy with freshly owned arrays.

        Used by :meth:`repro.cluster.network.Network.send_batches` with
        ``copy=True`` to snapshot a payload whose backing buffers the
        sender intends to mutate after the send (the copy-on-conflict
        rule of the zero-copy transport).
        """
        return LocalPartition(
            keys=self.keys.copy(),
            columns={name: values.copy() for name, values in self.columns.items()},
        )

    # -- cached key index and scatter plans -----------------------------

    def invalidate_caches(self) -> None:
        """Drop the cached key index, distinct keys, and scatter plans.

        Caches self-invalidate when ``keys`` is rebound to a new array;
        call this only after mutating the key array in place.
        """
        self._cache_keys = None
        self._key_index = None
        self._distinct = None
        self._scatter_plans = {}

    def _fresh_caches(self) -> None:
        if self._cache_keys is not self.keys:
            self.invalidate_caches()
            self._cache_keys = self.keys

    def key_index(self) -> KeyIndex:
        """The partition's sorted-key index, built once and cached.

        Sorting goes through :func:`~repro.util.stable_sort_with_order`
        (value/index pack-sort when the key span permits): the resulting
        permutation is identical to a plain stable argsort but avoids
        its indirect gather passes.  The uniqueness flag is lazy.
        """
        self._fresh_caches()
        if self._key_index is None:
            order, sorted_keys = stable_sort_with_order(self.keys)
            self._key_index = KeyIndex(order=order, sorted_keys=sorted_keys)
        return self._key_index

    def distinct_with_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys and their repeat counts (cached; == ``np.unique``).

        Picks the cheapest algorithm for the key distribution at hand:

        * an already-built :meth:`key_index` is reused (one boundary scan);
        * dense key domains (span ≤ ``_DISTINCT_DENSE_FACTOR`` × rows)
          count occurrences with one sort-free ``bincount`` pass;
        * otherwise ``np.unique``'s value-only sort runs — several times
          faster than an index sort plus gather, which is why this does
          NOT build the key index as a side effect.
        """
        self._fresh_caches()
        if self._distinct is None:
            if self._key_index is not None:
                sorted_keys = self._key_index.sorted_keys
                starts = segment_boundaries(sorted_keys)
                self._distinct = (
                    sorted_keys[starts],
                    segment_count(starts, len(sorted_keys)),
                )
            else:
                self._distinct = self._distinct_uncached()
        return self._distinct

    def _distinct_uncached(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys + counts without (building) the key index."""
        n = len(self.keys)
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
        base = int(self.keys.min())
        span = int(self.keys.max()) - base + 1
        if span <= _DISTINCT_DENSE_FACTOR * n + 1024:
            counts = np.bincount(self.keys - base, minlength=span)
            present = np.flatnonzero(counts)
            return (present + base).astype(np.int64), counts[present]
        distinct, counts = np.unique(self.keys, return_counts=True)
        return distinct, counts

    def hash_scatter_plan(self, num_buckets: int, seed: int = 0) -> ScatterPlan:
        """Cached hash-routing of rows to ``num_buckets`` destinations.

        The plan's row order is composed with the key index, so each
        destination's batch arrives key-sorted — receivers then sort
        concatenations of sorted runs, which numpy's mergesort detects.
        """
        self._fresh_caches()
        plan = self._scatter_plans.get((num_buckets, seed))
        if plan is None:
            # Every stage is chunk-parallel when kernel workers are on
            # (elementwise hash, gathers, counting-merged argsort) and
            # bit-identical to the serial composition either way; the
            # bucket bounds fall out of the destination counts, which
            # equal the searchsorted offsets over the sorted
            # destinations.
            destinations = chunked_build(
                lambda start, stop: hash_partition(
                    self.keys[start:stop], num_buckets, seed
                ),
                len(self.keys),
                np.int64,
            )
            key_order = self.key_index().order
            routed = chunked_gather(destinations, key_order)
            inner, counts = chunked_argsort_bounded(
                routed, num_buckets, stable_argsort_bounded
            )
            order = chunked_gather(key_order, inner)
            bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
            plan = ScatterPlan(destinations=destinations, order=order, bounds=bounds)
            self._scatter_plans[(num_buckets, seed)] = plan
        return plan

    def distinct_scatter_plan(self, num_buckets: int, seed: int = 0) -> ScatterPlan:
        """Cached hash-routing of the partition's *distinct* keys.

        This is the tracking-phase scatter: deduplicated keys go to their
        scheduling node ``hash(k) mod N``.  Cached alongside the key
        index so repeated tracking runs skip the hash and the sort.
        """
        self._fresh_caches()
        plan = self._scatter_plans.get(("distinct", num_buckets, seed))
        if plan is None:
            distinct, _ = self.distinct_with_counts()
            destinations = hash_partition(distinct, num_buckets, seed)
            order = stable_argsort_bounded(destinations, num_buckets)
            bounds = np.searchsorted(destinations[order], np.arange(num_buckets + 1))
            plan = ScatterPlan(destinations=destinations, order=order, bounds=bounds)
            self._scatter_plans[("distinct", num_buckets, seed)] = plan
        return plan

    def _slice(self, start: int, stop: int) -> "LocalPartition":
        """Contiguous row range as views (no copy) of this partition."""
        return LocalPartition(
            keys=self.keys[start:stop],
            columns={name: values[start:stop] for name, values in self.columns.items()},
        )

    def split_by(
        self,
        destinations: np.ndarray,
        num_buckets: int,
        rows: np.ndarray | None = None,
    ) -> list["LocalPartition | None"]:
        """Scatter rows to ``num_buckets`` groups; ``None`` marks empty ones.

        ``destinations[i]`` routes row ``rows[i]`` (or row ``i`` when
        ``rows`` is omitted).  One bounded-dtype stable argsort
        (chunk-parallel when kernel workers are on) and a single gather,
        then the result is sliced per bucket, so each bucket holds its
        rows in their original relative order.
        """
        order, counts = chunked_argsort_bounded(
            destinations, num_buckets, stable_argsort_bounded
        )
        bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        gathered = self.take(order if rows is None else chunked_gather(rows, order))
        return [
            gathered._slice(bounds[dst], bounds[dst + 1])
            if bounds[dst + 1] > bounds[dst]
            else None
            for dst in range(num_buckets)
        ]

    def hash_split(self, num_buckets: int, seed: int = 0) -> list["LocalPartition | None"]:
        """Scatter rows by key hash (the Grace repartitioning primitive).

        Reuses the cached :meth:`hash_scatter_plan`, so repeated runs
        over the same partition skip both the hash and the sort and pay
        only the gather.
        """
        plan = self.hash_scatter_plan(num_buckets, seed)
        gathered = self.take(plan.order)
        return [
            gathered._slice(plan.bounds[dst], plan.bounds[dst + 1])
            if plan.bounds[dst + 1] > plan.bounds[dst]
            else None
            for dst in range(num_buckets)
        ]

    @staticmethod
    def empty(column_names: tuple[str, ...] = ()) -> "LocalPartition":
        """A zero-row partition with the given payload column names."""
        return LocalPartition(
            keys=np.empty(0, dtype=np.int64),
            columns={name: np.empty(0, dtype=np.int64) for name in column_names},
        )

    @staticmethod
    def concat(parts: list["LocalPartition"]) -> "LocalPartition":
        """Concatenate several partitions with identical column sets."""
        parts = [p for p in parts if p is not None]
        if not parts:
            return LocalPartition.empty()
        names = tuple(parts[0].columns)
        for part in parts[1:]:
            if set(part.columns) != set(names):
                raise SchemaError("cannot concatenate partitions with different columns")
        return LocalPartition(
            keys=np.concatenate([p.keys for p in parts]),
            columns={
                name: np.concatenate([p.columns[name] for p in parts]) for name in names
            },
        )


class DistributedTable:
    """A relation split across the nodes of a simulated cluster."""

    def __init__(self, name: str, schema: Schema, partitions: list[LocalPartition]):
        if not partitions:
            raise PlacementError(f"table {name!r} needs at least one partition")
        self.name = name
        self.schema = schema
        self.partitions = partitions

    @property
    def num_nodes(self) -> int:
        """Number of nodes the table is spread over."""
        return len(self.partitions)

    @property
    def total_rows(self) -> int:
        """Total tuple count across all nodes."""
        return sum(p.num_rows for p in self.partitions)

    @property
    def payload_names(self) -> tuple[str, ...]:
        """Payload column names carried by every partition."""
        return tuple(self.partitions[0].columns)

    def all_keys(self) -> np.ndarray:
        """All join keys of the table, concatenated in node order."""
        return np.concatenate([p.keys for p in self.partitions])

    def gathered(self) -> LocalPartition:
        """The whole table as a single partition (test/verification aid)."""
        return LocalPartition.concat(list(self.partitions))

    def node_sizes(self) -> np.ndarray:
        """Per-node tuple counts (useful for balance diagnostics)."""
        return np.array([p.num_rows for p in self.partitions], dtype=np.int64)

    @classmethod
    def from_assignment(
        cls,
        name: str,
        schema: Schema,
        keys: np.ndarray,
        node_of_row: np.ndarray,
        num_nodes: int,
        columns: dict[str, np.ndarray] | None = None,
    ) -> "DistributedTable":
        """Build a table by scattering rows according to ``node_of_row``.

        Parameters
        ----------
        keys:
            Join key of every row.
        node_of_row:
            Destination node of every row; values in ``[0, num_nodes)``.
        columns:
            Optional payload columns, same length as ``keys``.  When
            omitted a single ``rid`` column is synthesized so the join
            output remains verifiable row-by-row.
        """
        keys = np.asarray(keys, dtype=np.int64)
        node_of_row = np.asarray(node_of_row, dtype=np.int64)
        if len(keys) != len(node_of_row):
            raise PlacementError(
                f"{len(keys)} keys but {len(node_of_row)} node assignments"
            )
        if len(node_of_row) and (node_of_row.min() < 0 or node_of_row.max() >= num_nodes):
            raise PlacementError(
                f"node assignment outside [0, {num_nodes}) for table {name!r}"
            )
        if columns is None:
            columns = {"rid": np.arange(len(keys), dtype=np.int64)}
        order = np.argsort(node_of_row, kind="stable")
        sorted_nodes = node_of_row[order]
        boundaries = np.searchsorted(sorted_nodes, np.arange(num_nodes + 1))
        partitions = []
        for node in range(num_nodes):
            rows = order[boundaries[node] : boundaries[node + 1]]
            partitions.append(
                LocalPartition(
                    keys=keys[rows],
                    columns={cname: cvals[rows] for cname, cvals in columns.items()},
                )
            )
        return cls(name, schema, partitions)
