"""Rid-based hash joins: late materialization and the tracking-aware variant.

Section 3.2 compares track join against hash joins that defer payload
access by carrying record identifiers (rids):

* :class:`LateMaterializationHashJoin` — keys are hashed with implicit
  rids, the join happens at the hash nodes, and payloads are fetched at
  output cardinality (cost ``(tR+tS)*wk + tRS*(wR+wS+log tR+log tS)``).

* :class:`TrackingAwareHashJoin` — the rid's node component is used as
  free tracking information: the joined result migrates to the location
  of the wider-payload tuple and only the narrower payload crosses the
  network (cost ``(tR+tS)*wk + tRS*(min(wR,wS)+wk+log tR+log tS)``).

The paper proves 2-phase track join subsumes the tracking-aware variant
(it deduplicates keys during tracking and resends keys, which compress
better than rids); these operators exist so that claim is measurable.
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.base import send_split, send_to
from ..exchange.gather import flush
from ..exchange.shuffle import KeyShuffle
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec
from .local import join_indices

__all__ = ["LateMaterializationHashJoin", "TrackingAwareHashJoin", "rid_width"]


def rid_width(total_rows: int) -> float:
    """Bytes of a local record identifier addressing ``total_rows``."""
    return math.ceil(math.log2(max(2, total_rows)) / 8)


def _scatter_keys(
    cluster: Cluster,
    table: DistributedTable,
    spec: JoinSpec,
    profile: ExecutionProfile,
    side: str,
) -> list[LocalPartition]:
    """Hash-scatter (key, implicit rid) streams; returns per-node arrivals.

    The returned partitions carry ``node``/``pos`` columns identifying
    each tuple's origin, but only the key column is accounted on the
    wire — rids are implicit in message origin and order.
    """
    key_width = table.schema.key_width(spec.encoding)
    shuffle = KeyShuffle(key_width, f"{side} keys", hash_seed=spec.hash_seed)
    return shuffle.run(cluster, profile, table.partitions)


def _rid_pairs(
    cluster: Cluster,
    recv_r: list[LocalPartition],
    recv_s: list[LocalPartition],
    profile: ExecutionProfile,
    key_width: float,
) -> list[LocalPartition]:
    """Join the scattered key streams at every hash node into rid pairs."""

    def pair_node(node: int) -> LocalPartition:
        r_part, s_part = recv_r[node], recv_s[node]
        idx_r, idx_s = join_indices(r_part.keys, s_part.keys)
        profile.add_cpu_at(
            "Join keys into rid pairs",
            "merge",
            node,
            (r_part.num_rows + s_part.num_rows + len(idx_r)) * key_width,
        )
        return LocalPartition(
            keys=r_part.keys[idx_r],
            columns={
                "r_node": r_part.columns["node"][idx_r],
                "r_pos": r_part.columns["pos"][idx_r],
                "s_node": s_part.columns["node"][idx_s],
                "s_pos": s_part.columns["pos"][idx_s],
            },
        )

    return cluster.run_phase(pair_node, profile=profile)


class LateMaterializationHashJoin(DistributedJoin):
    """Hash join on keys + rids, fetching payloads at output cardinality."""

    name = "LMHJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition]:
        recv_r = _scatter_keys(cluster, table_r, spec, profile, "R")
        recv_s = _scatter_keys(cluster, table_s, spec, profile, "S")
        key_width = table_r.schema.key_width(spec.encoding)
        pairs = _rid_pairs(cluster, recv_r, recv_s, profile, key_width)

        rid_r = rid_width(table_r.total_rows)
        rid_s = rid_width(table_s.total_rows)

        def fetch_node(node: int) -> LocalPartition:
            pair = pairs[node]
            columns: dict[str, np.ndarray] = {}
            for side, table, rid_bytes, category in (
                ("r", table_r, rid_r, MessageClass.R_TUPLES),
                ("s", table_s, rid_s, MessageClass.S_TUPLES),
            ):
                payload_width = table.schema.payload_width(spec.encoding)
                origin = pair.columns[f"{side}_node"]
                pos = pair.columns[f"{side}_pos"]
                fetched = {
                    name: np.empty(pair.num_rows, dtype=values.dtype)
                    for name, values in table.partitions[0].columns.items()
                }
                srcs = np.unique(origin)
                selections = [np.flatnonzero(origin == src) for src in srcs.tolist()]
                per_src = np.array([len(sel) for sel in selections], dtype=np.float64)
                # Fetch requests: one rid per output tuple, one size-only
                # row to every origin node.
                send_to(
                    cluster, profile, MessageClass.RIDS, node, srcs,
                    per_src * rid_bytes, f"Fetch {side.upper()} payloads", None,
                )
                # Responses: the payload columns, in request order, one
                # message from each origin node.
                response_bytes = per_src * payload_width
                for src, nbytes in zip(srcs.tolist(), response_bytes.tolist()):
                    cluster.network.send_batches(
                        src, category, None, dsts=[node], nbytes=[nbytes]
                    )
                profile.add_net_row(
                    f"Return {side.upper()} payloads", None, srcs,
                    np.full(len(srcs), node), response_bytes,
                )
                for src, sel in zip(srcs.tolist(), selections):
                    rows = table.partitions[src].take(pos[sel])
                    for name, values in rows.columns.items():
                        fetched[name][sel] = values
                for name, values in fetched.items():
                    columns[f"{side}.{name}"] = values
            return LocalPartition(keys=pair.keys, columns=columns)

        output = cluster.run_phase(fetch_node, profile=profile)
        # Request/response messages carry no payloads; drain them at the
        # phase barrier (the serial loop drained per node as it went).
        flush(cluster)
        return output


class TrackingAwareHashJoin(DistributedJoin):
    """Rid-based hash join exploiting the rid's implicit location (Sec 3.2).

    The result migrates to the wider-payload tuple's node; only the
    narrower payload (plus the key and rids) crosses the network.
    """

    name = "TAHJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition]:
        recv_r = _scatter_keys(cluster, table_r, spec, profile, "R")
        recv_s = _scatter_keys(cluster, table_s, spec, profile, "S")
        key_width = table_r.schema.key_width(spec.encoding)
        pairs = _rid_pairs(cluster, recv_r, recv_s, profile, key_width)

        wide_is_r = table_r.schema.payload_width(spec.encoding) >= table_s.schema.payload_width(
            spec.encoding
        )
        wide, narrow = ("r", "s") if wide_is_r else ("s", "r")
        wide_table = table_r if wide_is_r else table_s
        narrow_table = table_s if wide_is_r else table_r
        rid_wide = rid_width(wide_table.total_rows)
        rid_narrow = rid_width(narrow_table.total_rows)
        narrow_width = key_width + narrow_table.schema.payload_width(spec.encoding)
        narrow_category = (
            MessageClass.S_TUPLES if wide_is_r else MessageClass.R_TUPLES
        )

        # Per (narrow rid, wide node) send-once bookkeeping, and per wide
        # node the set of wide rids participating in the join.
        def schedule_t_node(t_node: int):
            pair = pairs[t_node]
            if pair.num_rows == 0:
                return [], []
            n_node = pair.columns[f"{narrow}_node"]
            n_pos = pair.columns[f"{narrow}_pos"]
            w_node = pair.columns[f"{wide}_node"]
            w_pos = pair.columns[f"{wide}_pos"]
            # Dedup (narrow tuple, destination) so each narrow tuple
            # crosses once per wide node; the rejoin by key restores the
            # full output at the destination.
            combo = np.stack([n_node, n_pos, w_node], axis=1)
            unique_send = np.unique(combo, axis=0)
            profile.add_cpu_at(
                "Deduplicate rid pairs", "aggregate", t_node, pair.num_rows * 16.0
            )
            jobs: list[tuple[int, int, np.ndarray, np.ndarray]] = []
            wides: list[tuple[int, np.ndarray]] = []
            narrow_nodes = np.unique(unique_send[:, 0])
            narrow_sel = [unique_send[unique_send[:, 0] == src] for src in narrow_nodes]
            # Instructions to the narrow nodes: (local rid, destination).
            send_to(
                cluster, profile, MessageClass.RIDS, t_node, narrow_nodes,
                np.array([len(sel) for sel in narrow_sel], dtype=np.float64)
                * (rid_narrow + spec.location_width),
                "Send narrow rids", None,
            )
            jobs: list[tuple[int, int, np.ndarray, np.ndarray]] = [
                (int(src), t_node, sel[:, 1], sel[:, 2])
                for src, sel in zip(narrow_nodes, narrow_sel)
            ]
            combo_w = np.stack([w_node, w_pos], axis=1)
            unique_wide = np.unique(combo_w, axis=0)
            wide_nodes = np.unique(unique_wide[:, 0])
            wide_sel = [unique_wide[unique_wide[:, 0] == dst] for dst in wide_nodes]
            # The wide nodes learn which of their rids participate.
            send_to(
                cluster, profile, MessageClass.RIDS, t_node, wide_nodes,
                np.array([len(sel) for sel in wide_sel], dtype=np.float64) * rid_wide,
                "Send wide rids", None,
            )
            wides: list[tuple[int, np.ndarray]] = [
                (int(dst), sel[:, 1]) for dst, sel in zip(wide_nodes, wide_sel)
            ]
            return jobs, wides

        scheduled = cluster.run_phase(schedule_t_node, profile=profile)
        send_jobs: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        wide_rows: dict[int, list[np.ndarray]] = {}
        for jobs, wides in scheduled:
            for src, t_node, positions, destinations in jobs:
                send_jobs.setdefault(src, []).append((t_node, positions, destinations))
            for dst, positions in wides:
                wide_rows.setdefault(dst, []).append(positions)
        flush(cluster)

        # Narrow nodes ship (key + narrow payload) to each destination.
        # Each job's destination split is computed once (a single fused
        # gather) and reused by the send pass and the arrivals pass.
        job_sources = list(send_jobs.items())

        def split_jobs(index: int) -> list[tuple[int, list[LocalPartition | None]]]:
            src, jobs = job_sources[index]
            partition = narrow_table.partitions[src]
            return [
                (src, partition.split_by(destinations, cluster.num_nodes, rows=positions))
                for _t_node, positions, destinations in jobs
            ]

        job_batches: list[tuple[int, list[LocalPartition | None]]] = []
        for batches_here in cluster.run_phase(
            split_jobs,
            tasks=len(job_sources),
            profile=profile,
            task_nodes=[src for src, _ in job_sources],
        ):
            job_batches.extend(batches_here)
        for src, batches in job_batches:
            send_split(
                cluster, profile, narrow_category, src, batches, narrow_width,
                "Transfer narrow tuples", "Local copy narrow tuples",
            )
        flush(cluster)
        arrivals: dict[int, list[LocalPartition]] = {}
        for _src, batches in job_batches:
            for dst, batch in enumerate(batches):
                if batch is not None:
                    arrivals.setdefault(dst, []).append(batch)

        # Rejoin at the wide nodes: selected local tuples vs arrivals.
        empty_names = tuple("r." + n for n in table_r.payload_names) + tuple(
            "s." + n for n in table_s.payload_names
        )

        def rejoin_node(node: int) -> LocalPartition:
            received = arrivals.get(node, [])
            if not received or node not in wide_rows:
                return LocalPartition.empty(empty_names)
            narrow_part = LocalPartition.concat(received)
            positions = np.unique(np.concatenate(wide_rows[node]))
            wide_part = wide_table.partitions[node].take(positions)
            idx_w, idx_n = join_indices(wide_part.keys, narrow_part.keys)
            profile.add_cpu_at(
                "Rejoin at wide node",
                "merge",
                node,
                (wide_part.num_rows + narrow_part.num_rows + len(idx_w)) * narrow_width,
            )
            columns: dict[str, np.ndarray] = {}
            for name, values in wide_part.columns.items():
                columns[f"{wide}.{name}"] = values[idx_w]
            for name, values in narrow_part.columns.items():
                columns[f"{narrow}.{name}"] = values[idx_n]
            return LocalPartition(keys=wide_part.keys[idx_w], columns=columns)

        return cluster.run_phase(rejoin_node, profile=profile)
