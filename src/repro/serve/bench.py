"""Throughput benchmark of the concurrent query service.

Drives ``queries`` requests drawn from a fixed mixed workload (filter
scans, fixed- and auto-algorithm joins, join+aggregate plans over two
resident tables) through two configurations:

- **baseline** — one-at-a-time cold execution: every query compiles its
  plan from scratch, measures its own join statistics, and builds its
  own cluster and executor, exactly like a standalone
  :func:`repro.query.execute` call;
- **serve** — the same request stream through a
  :class:`~repro.serve.service.QueryService` with the plan cache and
  warm executor pool on and ``clients`` in-flight drivers.

Reported per side: wall-clock, queries/sec, and p50/p99 latency;
plus the serve side's plan-cache hit rate and pool accounting, and a
cross-check that every serve outcome matched the baseline's output
rows and network bytes for the same plan (the deep byte-identity proof
lives in the isolation test suite).

The 3x speedup acceptance gate is core-gated like the scaling bench:
one physical core cannot demonstrate a concurrency win, so the gate
records why it was skipped instead of failing (`host_cpus` is in the
report).  The smoke checks (:func:`check_serve`) assert what any host
can deliver: serve at least matches the baseline within tolerance
(plan-cache savings alone cover thread overhead), a generous absolute
p99 bound, and a nonzero cache hit rate.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..cluster.cluster import Cluster
from ..joins.base import JoinSpec
from ..query.executor import compile_plan
from ..query.aggregate import AggregateSpec
from ..query.plan import Aggregate, Join, PlanNode, Scan
from ..query.predicates import ColumnPredicate
from ..storage.placement import random_uniform
from ..storage.schema import Column, Schema
from ..storage.table import DistributedTable
from ..timing.clock import wall_clock
from .service import QueryRequest, QueryService

__all__ = [
    "SERVE_GATE_CPUS",
    "SERVE_GATE_SPEEDUP",
    "bench_serve",
    "bench_serve_report",
    "check_serve",
    "serve_query_mix",
    "serve_tables",
]

#: The 3x concurrency gate needs at least this many physical cores.
SERVE_GATE_CPUS = 4
#: Required serve-vs-baseline throughput ratio on a provisioned host.
SERVE_GATE_SPEEDUP = 3.0
#: Smoke tolerance: serve throughput must stay within this factor of
#: the one-at-a-time baseline even on a single core (cache savings
#: must at least pay for scheduling overhead).
SERVE_SMOKE_TOLERANCE = 0.85
#: Smoke bound on serve p99 latency, generous enough for shared CI.
SERVE_SMOKE_P99_SECONDS = 30.0


def serve_tables(
    num_nodes: int = 8, scaled_tuples: int = 20_000, seed: int = 0
) -> dict[str, DistributedTable]:
    """Two resident tables (orders R, items S) the query mix runs over."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(num_nodes)
    distinct = max(1, scaled_tuples // 8)
    schema_r = Schema(
        (Column("key", bits=32),),
        (Column("amount", bits=64), Column("cust", bits=64)),
    )
    table_r = cluster.table_from_assignment(
        "serve_orders",
        schema_r,
        rng.integers(0, distinct, scaled_tuples).astype(np.int64),
        random_uniform(scaled_tuples, num_nodes, seed=seed * 19 + 1),
        columns={
            "amount": rng.integers(1, 100, scaled_tuples).astype(np.int64),
            "cust": rng.integers(0, 200, scaled_tuples).astype(np.int64),
        },
    )
    schema_s = Schema((Column("key", bits=32),), (Column("qty", bits=64),))
    rows_s = scaled_tuples + scaled_tuples // 2
    table_s = cluster.table_from_assignment(
        "serve_items",
        schema_s,
        rng.integers(0, distinct, rows_s).astype(np.int64),
        random_uniform(rows_s, num_nodes, seed=seed * 19 + 2),
        columns={"qty": rng.integers(1, 10, rows_s).astype(np.int64)},
    )
    return {table_r.name: table_r, table_s.name: table_s}


def serve_query_mix(tables: dict[str, DistributedTable]) -> list[PlanNode]:
    """The distinct plan shapes the benchmark cycles through.

    A realistic mix: cheap filter scans, joins with fixed and cost-model
    algorithm choice (some over filtered inputs), and join+aggregate
    plans.  Joins dominate the list because they are where the plan
    cache pays twice — skipped compilation *and* skipped statistics.
    """
    orders = tables["serve_orders"]
    items = tables["serve_items"]
    return [
        Scan(orders, ColumnPredicate("amount", "<", 50)),
        Scan(items, ColumnPredicate("qty", ">=", 5)),
        Join(Scan(orders), Scan(items), algorithm="HJ"),
        Join(Scan(orders), Scan(items)),
        Join(Scan(orders), Scan(items), algorithm="2TJ-R"),
        Join(Scan(orders, ColumnPredicate("amount", "<", 25)), Scan(items)),
        Join(Scan(orders), Scan(items, ColumnPredicate("qty", ">=", 8))),
        Aggregate(
            Join(Scan(orders), Scan(items), algorithm="HJ"),
            aggregates=(AggregateSpec("total_qty", "sum", "s.qty"),),
        ),
        Aggregate(
            Join(Scan(orders, ColumnPredicate("amount", ">=", 50)), Scan(items)),
            aggregates=(AggregateSpec("n", "count", "s.qty"),),
        ),
    ]


def _latency_stats(seconds: list[float]) -> dict:
    values = np.asarray(seconds, dtype=np.float64)
    return {
        "p50_seconds": float(np.percentile(values, 50)),
        "p99_seconds": float(np.percentile(values, 99)),
        "mean_seconds": float(values.mean()),
    }


def bench_serve(
    queries: int = 100,
    clients: int | None = None,
    num_nodes: int = 8,
    scaled_tuples: int = 20_000,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """One-at-a-time baseline vs the concurrent service, same stream.

    ``clients`` bounds the service's in-flight queries (driver
    threads); the default scales with the host — two per core, capped
    at 8 — because drivers beyond the physical cores only add GIL and
    cache contention.  ``workers`` configures the warm pool
    (the default single warm worker runs each query's phases inline on
    its driver thread, so inter-query concurrency comes from
    ``clients``).
    """
    tables = serve_tables(num_nodes, scaled_tuples, seed)
    mix = serve_query_mix(tables)
    plan_of = [i % len(mix) for i in range(queries)]
    spec = JoinSpec()
    host_cpus = os.cpu_count() or 1
    if clients is None:
        clients = max(2, min(8, 2 * host_cpus))

    # Baseline: cold compile + fresh cluster + fresh executor per query.
    baseline_latencies: list[float] = []
    baseline_rows: list[int] = []
    baseline_bytes: list[float] = []
    baseline_start = wall_clock()
    for index in plan_of:
        start = wall_clock()
        result = compile_plan(mix[index]).run(Cluster(num_nodes), spec)
        baseline_latencies.append(wall_clock() - start)
        baseline_rows.append(result.output_rows)
        baseline_bytes.append(result.network_bytes)
    baseline_seconds = wall_clock() - baseline_start

    # Serve: warm pool + plan cache + admission-controlled drivers.
    with QueryService(
        tables,
        workers=workers,
        max_inflight=clients,
        max_queue=queries,
    ) as service:
        serve_start = wall_clock()
        tickets = service.submit_many(
            QueryRequest(plan=mix[index], spec=spec, tag=f"q{i}")
            for i, index in enumerate(plan_of)
        )
        outcomes = service.drain(tickets)
        serve_seconds = wall_clock() - serve_start
        stats = service.stats()

    mismatches = 0
    for i, outcome in enumerate(outcomes):
        if not outcome.ok:
            raise AssertionError(
                f"serve query {outcome.tag} failed: {outcome.error!r}"
            )
        if (
            outcome.result.output_rows != baseline_rows[i]
            or outcome.result.network_bytes != baseline_bytes[i]
        ):
            mismatches += 1
    if mismatches:
        raise AssertionError(
            f"{mismatches} serve outcome(s) diverged from the one-at-a-time "
            "baseline (rows or network bytes)"
        )

    baseline_qps = queries / baseline_seconds if baseline_seconds > 0 else float("inf")
    serve_qps = queries / serve_seconds if serve_seconds > 0 else float("inf")
    speedup = serve_qps / baseline_qps if baseline_qps > 0 else float("inf")
    report = {
        "host_cpus": host_cpus,
        "config": {
            "queries": queries,
            "clients": clients,
            "num_nodes": num_nodes,
            "scaled_tuples": scaled_tuples,
            "seed": seed,
            "workers": workers,
            "distinct_plans": len(mix),
        },
        "baseline": {
            "seconds": baseline_seconds,
            "queries_per_second": baseline_qps,
            **_latency_stats(baseline_latencies),
        },
        "serve": {
            "seconds": serve_seconds,
            "queries_per_second": serve_qps,
            **_latency_stats([o.total_seconds for o in outcomes]),
            "run_p50_seconds": float(
                np.percentile([o.run_seconds for o in outcomes], 50)
            ),
        },
        "speedup": speedup,
        "cache": stats["cache"],
        "pool": stats["pool"],
        "service": stats["service"],
        "outputs_match_baseline": True,
        "gate": _serve_gate(speedup, host_cpus),
    }
    return report


def _serve_gate(speedup: float, host_cpus: int) -> dict:
    """The 3x concurrency gate, skipped on under-provisioned hosts."""
    gate: dict = {
        "threshold": SERVE_GATE_SPEEDUP,
        "min_cpus": SERVE_GATE_CPUS,
        "speedup": speedup,
    }
    if host_cpus < SERVE_GATE_CPUS:
        gate.update(
            checked=False,
            reason=(
                f"host has {host_cpus} core(s); concurrent throughput is "
                "core-bound, not service-bound"
            ),
        )
        return gate
    gate.update(checked=True, passed=speedup >= SERVE_GATE_SPEEDUP)
    return gate


def check_serve(report: dict, tolerance: float = SERVE_SMOKE_TOLERANCE) -> list[str]:
    """Smoke failures of one :func:`bench_serve` report.

    Host-independent assertions: serve throughput within ``tolerance``
    of the one-at-a-time baseline, p99 under the absolute bound, a
    nonzero plan-cache hit rate, outputs matching the baseline, and the
    core-gated 3x check when it ran.
    """
    failures: list[str] = []
    speedup = report["speedup"]
    if speedup < tolerance:
        failures.append(
            f"serve throughput is {speedup:.2f}x the one-at-a-time baseline, "
            f"below the {tolerance:.2f}x smoke tolerance"
        )
    p99 = report["serve"]["p99_seconds"]
    if p99 > SERVE_SMOKE_P99_SECONDS:
        failures.append(
            f"serve p99 latency {p99:.2f}s exceeds the "
            f"{SERVE_SMOKE_P99_SECONDS:.0f}s smoke bound"
        )
    if report["cache"]["hit_rate"] <= 0.0:
        failures.append("plan cache recorded no hits over the benchmark mix")
    if not report.get("outputs_match_baseline"):
        failures.append("serve outputs diverged from the baseline")
    gate = report.get("gate", {})
    if gate.get("checked") and not gate.get("passed"):
        failures.append(
            f"serve speedup {gate['speedup']:.2f}x is below the required "
            f"{gate['threshold']:.2f}x on a {report['host_cpus']}-core host"
        )
    return failures


def bench_serve_report(
    out_path: str | Path = "BENCH_joins.json",
    **kwargs,
) -> int:
    """Run :func:`bench_serve`, merge a ``"serve"`` section, gate it.

    Other keys of an existing ``BENCH_joins.json`` (kernels, joins,
    scaling, chaos) are preserved.  Returns non-zero when
    :func:`check_serve` finds a failure.
    """
    from ..perf.bench import write_report

    report = bench_serve(**kwargs)
    out_file = Path(out_path)
    payload = {}
    if out_file.exists() and out_file.read_text().strip():
        payload = json.loads(out_file.read_text())
    payload["serve"] = report
    write_report(out_file, payload)
    print(f"wrote {out_path} (host_cpus={report['host_cpus']})")
    baseline = report["baseline"]
    serve = report["serve"]
    print(
        f"  baseline  {baseline['queries_per_second']:8.1f} q/s  "
        f"p50 {baseline['p50_seconds'] * 1e3:7.1f}ms  "
        f"p99 {baseline['p99_seconds'] * 1e3:7.1f}ms"
    )
    print(
        f"  serve     {serve['queries_per_second']:8.1f} q/s  "
        f"p50 {serve['p50_seconds'] * 1e3:7.1f}ms  "
        f"p99 {serve['p99_seconds'] * 1e3:7.1f}ms  "
        f"({report['speedup']:.2f}x, cache hit rate "
        f"{report['cache']['hit_rate']:.2f})"
    )
    gate = report["gate"]
    if gate.get("checked"):
        verdict = "pass" if gate["passed"] else "FAIL"
        print(
            f"  gate: {gate['speedup']:.2f}x >= {gate['threshold']:.2f}x "
            f"... {verdict}"
        )
    else:
        print(f"  gate skipped: {gate.get('reason')}")
    failures = check_serve(report)
    for failure in failures:
        print(f"REGRESSION {failure}")
    return 1 if failures else 0
