"""Perf-regression harness for the storage kernels and whole joins.

Wall-clock and peak allocation are measured here and defended against
regressions relative to a committed baseline:

* :func:`bench_kernels` — microbenchmarks of the storage primitives
  (bounded-dtype argsort, index build, ``split_by``, ``hash_split``,
  ``join_indices``).
* :func:`bench_joins` — end-to-end wall-clock, peak allocation and
  per-message-class traffic of whole join algorithms on the Figure 3
  workload.
* :func:`bench_scaling` — end-to-end wall-clock of whole joins across
  worker counts (the parallel engine's 1 → n cores curve), with a
  ledger-identity check proving every worker count produced
  byte-identical traffic.
* :func:`bench_smoke` — the tiny-scale CI gate behind
  ``python -m repro bench-smoke``: writes ``BENCH_joins.json`` and
  fails when any kernel runs more than ``threshold`` times slower than
  the committed baseline.

The measured fields keep their historical ``fused_seconds`` /
``fused_peak_bytes`` names so records stay comparable with the
committed baseline.

Timing is best-of-N after warmup because the benchmark box is shared
and noisy; peak allocation is measured in a separate tracemalloc pass
so instrumentation never pollutes the wall-clock numbers.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ..encoding import DictionaryEncoding
from ..joins.base import JoinSpec
from ..joins.local import join_indices
from ..joins.registry import create
from ..storage.table import LocalPartition
from ..util import hash_partition, stable_argsort_bounded
from ..workloads.synthetic import unique_keys_workload

__all__ = [
    "best_time",
    "peak_alloc",
    "peak_rss_bytes",
    "bench_kernels",
    "bench_joins",
    "bench_scaling",
    "bench_scaling_report",
    "bench_skew",
    "bench_skew_report",
    "bench_smoke",
    "check_regressions",
    "check_scaling",
    "check_skew",
    "lint_summary",
    "write_report",
]

#: Algorithms the end-to-end bench compares, in report order.  The
#: report labels are fixed (they key the committed baseline JSON); the
#: operators come from the registry.
BENCH_ALGORITHMS = (
    ("HJ", lambda: create("HJ")),
    ("2TJ-RS", lambda: create("2TJ-R")),
    ("2TJ-SR", lambda: create("2TJ-S")),
    ("3TJ", lambda: create("3TJ")),
    ("4TJ", lambda: create("4TJ")),
    ("BJ-R", lambda: create("BJ-R")),
)


def best_time(fn, repeats: int = 3, warmup: int = 1) -> float:
    """Best wall-clock seconds of ``fn`` over ``repeats`` timed runs."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_alloc(fn) -> int:
    """Peak traced allocation bytes of one ``fn()`` call."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _bench_spec() -> JoinSpec:
    """The figure-reproduction spec the end-to-end bench runs under."""
    return JoinSpec(
        encoding=DictionaryEncoding(), materialize=False, group_locations=True
    )


# -- kernel microbenchmarks ---------------------------------------------


def _kernel_cases(scaled_tuples: int, num_nodes: int, seed: int):
    """(name, fn) closures over one synthetic partition."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, max(1, scaled_tuples // 2), scaled_tuples).astype(np.int64)
    part = LocalPartition(
        keys=keys, columns={"rid": np.arange(scaled_tuples, dtype=np.int64)}
    )
    destinations = hash_partition(keys, num_nodes, seed)
    probe = rng.permutation(keys)[: scaled_tuples // 4]

    def index_build():
        part.invalidate_caches()
        part.key_index()

    def distinct():
        part.invalidate_caches()
        part.distinct_with_counts()

    return [
        ("stable_argsort", lambda: stable_argsort_bounded(destinations, num_nodes)),
        ("index_build", index_build),
        ("distinct_with_counts", distinct),
        ("split_by", lambda: part.split_by(destinations, num_nodes)),
        ("hash_split", lambda: part.hash_split(num_nodes, seed)),
        (
            "join_indices",
            lambda: join_indices(probe, part.keys, right_index=part.key_index()),
        ),
    ]


def bench_kernels(
    scaled_tuples: int = 200_000,
    num_nodes: int = 16,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
) -> dict:
    """Best-of-``repeats`` seconds of every storage kernel."""
    return {
        name: {"fused_seconds": best_time(fn, repeats, warmup)}
        for name, fn in _kernel_cases(scaled_tuples, num_nodes, seed)
    }


# -- end-to-end join benchmarks -----------------------------------------


def bench_joins(
    scaled_tuples: int = 250_000,
    num_nodes: int = 16,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    measure_memory: bool = True,
    algorithms=BENCH_ALGORITHMS,
) -> dict:
    """Wall-clock, peak allocation and traffic of whole joins (Fig. 3 workload).

    A fault-free run must never account a retransmitted byte; one that
    does raises instead of reporting its timing.
    """
    spec = _bench_spec()
    results = {}
    for label, factory in algorithms:
        workload = unique_keys_workload(
            num_nodes=num_nodes, scaled_tuples=scaled_tuples, seed=seed
        )

        def run(workload=workload):
            return factory().run(
                workload.cluster, workload.table_r, workload.table_s, spec
            )

        seconds = best_time(run, repeats, warmup)
        result = run()
        retransmit = float(result.traffic.retransmit_bytes)
        if retransmit != 0.0:
            raise AssertionError(
                f"{label}: fault-free run accounted {retransmit} retransmitted bytes"
            )
        results[label] = {
            "fused_seconds": seconds,
            "fused_peak_bytes": peak_alloc(run) if measure_memory else None,
            "traffic_by_class": {
                category.name: nbytes
                for category, nbytes in sorted(
                    result.traffic.by_class.items(), key=lambda kv: kv[0].name
                )
            },
            "retransmit_bytes": retransmit,
        }
    return results


#: Algorithms the scaling curve times (the Fig. 3 headliners).
SCALING_ALGORITHMS = (
    ("4TJ", lambda: create("4TJ")),
    ("HJ", lambda: create("HJ")),
)

#: Required end-to-end speedup at :data:`SCALING_GATE_WORKERS` workers,
#: enforced only on hosts with at least that many cores.
SCALING_GATE_WORKERS = 4
SCALING_GATE_THRESHOLDS = {"4TJ": 2.0, "HJ": 1.5}


def bench_scaling(
    scaled_tuples: int = 250_000,
    num_nodes: int = 16,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    worker_counts=(1, 2, 4, 8),
    algorithms=SCALING_ALGORITHMS,
    pipeline_depth: int = 2,
) -> dict:
    """Wall-clock scaling curve of whole joins across worker counts.

    Each algorithm runs the Fig. 3 workload once per worker count (best
    of ``repeats``), with kernel chunking matched to the worker count
    and exchange pipelining at ``pipeline_depth`` (serial runs keep
    strict barriers as the reference).  Every run's
    traffic ledger — per-class and per-link — and its output row count
    must be identical to the serial (1-worker) reference; a divergence
    raises, because a scaling number for a run that computed something
    different is meaningless.

    ``host_cpus`` is recorded alongside the curve, and
    ``effective_parallelism`` annotates how many of each run's workers
    can actually execute concurrently: speedups are bounded by the
    physical cores of the benchmark box, so a 1-core host reports a
    flat curve no matter how sound the engine is.  The per-algorithm
    ``scaling_gate`` entry therefore only demands its threshold
    speedup when the host has at least :data:`SCALING_GATE_WORKERS`
    cores; otherwise the gate records why it was skipped.

    Each worker count also records the final run's wall-clock phase
    breakdown (dispatch / kernel / barrier-wait / commit seconds from
    :meth:`~repro.timing.profile.ExecutionProfile.timing_totals`) under
    ``phase_breakdown``.
    """
    from ..parallel import chunks

    spec = _bench_spec()
    host_cpus = os.cpu_count() or 1
    report: dict = {
        "host_cpus": host_cpus,
        "worker_counts": [int(w) for w in worker_counts],
        "pipeline_depth": pipeline_depth,
        "effective_parallelism": {
            str(int(w)): min(int(w), host_cpus) for w in worker_counts
        },
        "config": {
            "scaled_tuples": scaled_tuples,
            "num_nodes": num_nodes,
            "seed": seed,
            "repeats": repeats,
            "warmup": warmup,
        },
        "algorithms": {},
    }
    for label, factory in algorithms:
        workload = unique_keys_workload(
            num_nodes=num_nodes, scaled_tuples=scaled_tuples, seed=seed
        )
        seconds: dict[str, float] = {}
        breakdown: dict[str, dict] = {}
        reference_ledger = None
        reference_rows = None
        try:
            for workers in worker_counts:
                workers = int(workers)
                workload.cluster.set_workers(workers)
                # Serial runs keep strict barriers and serial
                # kernels: they are the reference the parallel
                # runs must reproduce byte-for-byte.
                workload.cluster.set_pipeline_depth(
                    pipeline_depth if workers > 1 else 1
                )
                chunks.set_kernel_workers(workers)

                def run():
                    return factory().run(
                        workload.cluster, workload.table_r, workload.table_s, spec
                    )

                seconds[str(workers)] = best_time(run, repeats, warmup)
                result = run()
                breakdown[str(workers)] = result.profile.timing_totals()
                ledger = (
                    sorted(
                        (c.name, b) for c, b in result.traffic.by_class.items()
                    ),
                    sorted(result.traffic.by_link.items()),
                )
                if reference_ledger is None:
                    reference_ledger = ledger
                    reference_rows = result.output_rows
                elif ledger != reference_ledger:
                    raise AssertionError(
                        f"{label}: ledger with {workers} workers diverged "
                        "from the serial reference"
                    )
                elif result.output_rows != reference_rows:
                    raise AssertionError(
                        f"{label}: {workers}-worker run produced "
                        f"{result.output_rows} rows, serial reference "
                        f"produced {reference_rows}"
                    )
        finally:
            workload.cluster.set_workers(1)
            workload.cluster.set_pipeline_depth(1)
            chunks.set_kernel_workers(None)
        base = seconds[str(int(worker_counts[0]))]
        speedups = {
            w: (base / s if s > 0 else float("inf")) for w, s in seconds.items()
        }
        report["algorithms"][label] = {
            "seconds": seconds,
            "speedup_vs_1": speedups,
            "ledger_identical": True,
            "output_rows": reference_rows,
            "phase_breakdown": breakdown,
            "scaling_gate": _scaling_gate(label, speedups, host_cpus),
        }
    return report


def _scaling_gate(label: str, speedups: dict[str, float], host_cpus: int) -> dict:
    """Per-algorithm speedup gate, skipped on under-provisioned hosts."""
    workers = SCALING_GATE_WORKERS
    threshold = SCALING_GATE_THRESHOLDS.get(label)
    gate: dict = {"workers": workers, "threshold": threshold}
    if threshold is None:
        gate.update(checked=False, reason=f"no threshold registered for {label}")
        return gate
    if str(workers) not in speedups:
        gate.update(
            checked=False, reason=f"{workers} workers not in the measured curve"
        )
        return gate
    gate["speedup"] = speedups[str(workers)]
    if host_cpus < workers:
        gate.update(
            checked=False,
            reason=(
                f"host has {host_cpus} core(s); "
                f"{workers}-worker speedup is core-bound, not engine-bound"
            ),
        )
        return gate
    gate.update(checked=True, passed=gate["speedup"] >= threshold)
    return gate


#: Phase-breakdown fields every scaling run must report.
PHASE_BREAKDOWN_FIELDS = (
    "dispatch_seconds",
    "kernel_seconds",
    "barrier_wait_seconds",
    "commit_seconds",
)


def check_scaling(scaling: dict) -> list[str]:
    """Gate failures of one :func:`bench_scaling` report.

    Checks that every curve kept ledger identity, that the per-phase
    wall-clock breakdown fields are present for every worker count, and
    that each checked ``scaling_gate`` met its threshold (gates skipped
    on under-provisioned hosts are not failures — the recorded reason
    says why).
    """
    failures: list[str] = []
    for label, row in scaling.get("algorithms", {}).items():
        if not row.get("ledger_identical"):
            failures.append(f"{label}: scaling runs did not keep ledger identity")
        for workers, totals in row.get("phase_breakdown", {}).items():
            missing = [f for f in PHASE_BREAKDOWN_FIELDS if f not in totals]
            if missing:
                failures.append(
                    f"{label}: {workers}-worker phase breakdown is missing "
                    f"{', '.join(missing)}"
                )
        gate = row.get("scaling_gate", {})
        if gate.get("checked") and not gate.get("passed"):
            failures.append(
                f"{label}: speedup {gate['speedup']:.2f}x at "
                f"{gate['workers']} workers is below the required "
                f"{gate['threshold']:.2f}x"
            )
    return failures


def bench_scaling_report(
    out_path: str | Path = "BENCH_joins.json",
    **kwargs,
) -> int:
    """Run :func:`bench_scaling` and merge the curve into ``out_path``.

    Other keys of an existing report (kernels, joins) are preserved, so
    ``bench-smoke`` followed by ``bench-scaling`` yields one combined
    ``BENCH_joins.json``.  Returns non-zero when :func:`check_scaling`
    finds a gate failure.
    """
    if isinstance(kwargs.get("worker_counts"), str):
        # CLI form: bench-scaling worker_counts=1,2,4
        kwargs["worker_counts"] = tuple(
            int(w) for w in kwargs["worker_counts"].split(",")
        )
    elif isinstance(kwargs.get("worker_counts"), int):
        kwargs["worker_counts"] = (kwargs["worker_counts"],)
    scaling = bench_scaling(**kwargs)
    out_file = Path(out_path)
    payload = {}
    if out_file.exists() and out_file.read_text().strip():
        payload = json.loads(out_file.read_text())
    payload["scaling"] = scaling
    write_report(out_file, payload)
    print(f"wrote {out_path} (host_cpus={scaling['host_cpus']})")
    for label, row in scaling["algorithms"].items():
        curve = "  ".join(
            f"{w}w {row['seconds'][w]:.4f}s ({row['speedup_vs_1'][w]:.2f}x)"
            for w in row["seconds"]
        )
        print(f"  {label:7s} {curve}")
        gate = row["scaling_gate"]
        if gate.get("checked"):
            verdict = "pass" if gate["passed"] else "FAIL"
            print(
                f"          gate: {gate['speedup']:.2f}x >= "
                f"{gate['threshold']:.2f}x @ {gate['workers']}w ... {verdict}"
            )
        else:
            print(f"          gate skipped: {gate.get('reason')}")
    failures = check_scaling(scaling)
    for failure in failures:
        print(f"REGRESSION {failure}")
    return 1 if failures else 0


#: Skew ablation gate: sharding must cut the peak per-node received
#: bytes at least this much ...
SKEW_GATE_MAX_LOAD_GAIN = 2.0
#: ... while total traffic stays within this factor of plain 4TJ.
SKEW_GATE_TRAFFIC_RATIO = 1.25


def bench_skew(
    scaled_tuples: int = 50_000,
    num_nodes: int = 16,
    distinct_keys: int = 5_000,
    skew: float = 1.2,
    hot_fraction: float = 0.05,
    seed: int = 0,
) -> dict:
    """Skew ablation: plain 4TJ vs heavy-hitter sharding on hot keys.

    Runs both operators on the identical Zipf hot-key workload
    (:func:`~repro.workloads.synthetic.hot_key_workload`) and records
    each ledger's total and per-node-peak bytes.  The gate asserts the
    point of sharding: ``max_received_bytes`` drops by at least
    :data:`SKEW_GATE_MAX_LOAD_GAIN` while total traffic stays within
    :data:`SKEW_GATE_TRAFFIC_RATIO` of the traffic-optimal plan — and
    both runs produce the same output cardinality.
    """
    from ..core.skew import SkewShardTrackJoin
    from ..workloads.synthetic import hot_key_workload

    spec = _bench_spec()
    cases = (
        ("4TJ", lambda: create("4TJ")),
        ("4TJ-shard", lambda: SkewShardTrackJoin(hot_fraction=hot_fraction)),
    )
    rows: dict[str, dict] = {}
    for label, factory in cases:
        workload = hot_key_workload(
            num_nodes=num_nodes,
            tuples_per_table=scaled_tuples,
            distinct_keys=distinct_keys,
            skew=skew,
            seed=seed,
        )
        result = factory().run(
            workload.cluster, workload.table_r, workload.table_s, spec
        )
        ledger = result.traffic
        rows[label] = {
            "output_rows": result.output_rows,
            "total_bytes": ledger.total_bytes,
            "max_received_bytes": ledger.max_received_bytes,
            "max_sent_bytes": ledger.max_sent_bytes,
            "receive_skew": result.node_balance()["receive_skew"],
        }
    base, shard = rows["4TJ"], rows["4TJ-shard"]
    max_load_gain = (
        base["max_received_bytes"] / shard["max_received_bytes"]
        if shard["max_received_bytes"]
        else float("inf")
    )
    traffic_ratio = (
        shard["total_bytes"] / base["total_bytes"] if base["total_bytes"] else 1.0
    )
    rows_match = base["output_rows"] == shard["output_rows"]
    return {
        "config": {
            "scaled_tuples": scaled_tuples,
            "num_nodes": num_nodes,
            "distinct_keys": distinct_keys,
            "skew": skew,
            "hot_fraction": hot_fraction,
            "seed": seed,
        },
        "algorithms": rows,
        "max_load_gain": max_load_gain,
        "traffic_ratio": traffic_ratio,
        "rows_match": rows_match,
        "skew_gate": {
            "max_load_gain_threshold": SKEW_GATE_MAX_LOAD_GAIN,
            "traffic_ratio_threshold": SKEW_GATE_TRAFFIC_RATIO,
            "passed": (
                rows_match
                and max_load_gain >= SKEW_GATE_MAX_LOAD_GAIN
                and traffic_ratio <= SKEW_GATE_TRAFFIC_RATIO
            ),
        },
    }


def check_skew(report: dict) -> list[str]:
    """Gate failures of one :func:`bench_skew` report (empty = pass)."""
    failures = []
    if not report["rows_match"]:
        rows = {k: v["output_rows"] for k, v in report["algorithms"].items()}
        failures.append(f"skew: output cardinality diverged ({rows})")
    gate = report["skew_gate"]
    if report["max_load_gain"] < gate["max_load_gain_threshold"]:
        failures.append(
            f"skew: max-load gain {report['max_load_gain']:.2f}x below "
            f"{gate['max_load_gain_threshold']:.2f}x"
        )
    if report["traffic_ratio"] > gate["traffic_ratio_threshold"]:
        failures.append(
            f"skew: traffic ratio {report['traffic_ratio']:.3f}x above "
            f"{gate['traffic_ratio_threshold']:.2f}x"
        )
    return failures


def bench_skew_report(
    out_path: str | Path = "BENCH_joins.json",
    **kwargs,
) -> int:
    """Run :func:`bench_skew` and merge the ablation into ``out_path``.

    Other keys of an existing report (kernels, joins, scaling) are
    preserved, mirroring :func:`bench_scaling_report`.  Returns
    non-zero when :func:`check_skew` finds a gate failure.
    """
    skew = bench_skew(**kwargs)
    out_file = Path(out_path)
    payload = {}
    if out_file.exists() and out_file.read_text().strip():
        payload = json.loads(out_file.read_text())
    payload["skew"] = skew
    write_report(out_file, payload)
    print(f"wrote {out_path}")
    for label, row in skew["algorithms"].items():
        print(
            f"  {label:9s} total {row['total_bytes']:.3e}B  "
            f"max-recv {row['max_received_bytes']:.3e}B  "
            f"recv-skew {row['receive_skew']:.2f}"
        )
    print(
        f"  gate: max-load gain {skew['max_load_gain']:.2f}x "
        f"(>= {SKEW_GATE_MAX_LOAD_GAIN}x), traffic "
        f"{skew['traffic_ratio']:.3f}x (<= {SKEW_GATE_TRAFFIC_RATIO}x)"
    )
    failures = check_skew(skew)
    for failure in failures:
        print(f"REGRESSION {failure}")
    return 1 if failures else 0


def write_report(path: str | Path, payload: dict) -> None:
    """Write one benchmark payload as pretty-printed JSON."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def lint_summary() -> dict:
    """Static-health summary of the package source (rule counts, files).

    Recorded into ``BENCH_joins.json`` under ``"analysis"`` so the
    growth trajectory tracks determinism/aliasing lint state alongside
    perf.  The scan targets the installed package directory, so it works
    from any working directory, and includes the whole-package dataflow
    pass (``"dataflow"``: module/function/call-edge counts, inferred
    task-context sizes, and analysis wall time).
    """
    from ..analysis import lint_paths

    package_dir = Path(__file__).resolve().parents[1]
    return lint_paths([package_dir], dataflow=True).summary()


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process, or ``None`` if unknown.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; the monotone
    high-water mark covers the whole process lifetime, so it brackets
    every bench run executed so far.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def check_regressions(
    kernels: dict,
    baseline: dict,
    threshold: float = 2.0,
    joins: dict | None = None,
) -> list[str]:
    """Kernels/joins worse than ``threshold``x their baseline.

    Covers wall-clock for every baseline kernel and — when both sides
    measured it — peak allocation for every baseline join, so a
    change that trades the traffic ledger's determinism-friendly
    materializations for bloated intermediates fails the same gate as a
    slowdown.  Null peaks (benches run with ``measure_memory=False``)
    skip the memory comparison rather than failing it.
    """
    failures = []
    for name, entry in baseline.get("kernels", {}).items():
        current = kernels.get(name)
        if current is None:
            failures.append(f"{name}: kernel missing from current run")
            continue
        limit = entry["fused_seconds"] * threshold
        if current["fused_seconds"] > limit:
            failures.append(
                f"{name}: {current['fused_seconds']:.6f}s exceeds "
                f"{threshold}x baseline {entry['fused_seconds']:.6f}s"
            )
    if joins is not None:
        for name, entry in baseline.get("joins", {}).items():
            base_peak = entry.get("fused_peak_bytes")
            current = joins.get(name)
            if base_peak is None or current is None:
                continue
            peak = current.get("fused_peak_bytes")
            if peak is None:
                failures.append(
                    f"{name}: baseline has fused_peak_bytes but the current "
                    "run did not measure memory"
                )
            elif peak > base_peak * threshold:
                failures.append(
                    f"{name}: peak {peak} bytes exceeds {threshold}x "
                    f"baseline {base_peak} bytes"
                )
    return failures


def bench_smoke(
    out_path: str | Path = "BENCH_joins.json",
    baseline_path: str | Path = "benchmarks/bench_baseline.json",
    scaled_tuples: int = 60_000,
    num_nodes: int = 16,
    seed: int = 0,
    repeats: int = 3,
    warmup: int = 1,
    threshold: float = 2.0,
    measure_memory: bool = True,
) -> int:
    """Tiny-scale gate: bench kernels + joins, write JSON, check baseline."""
    from ..faults.chaos import chaos_summary

    kernels = bench_kernels(scaled_tuples, num_nodes, seed, repeats, warmup)
    joins = bench_joins(
        scaled_tuples, num_nodes, seed, repeats, warmup,
        measure_memory=measure_memory,
    )
    scaling = bench_scaling(
        scaled_tuples, num_nodes, seed, repeats, warmup, worker_counts=(1, 2, 4)
    )
    chaos = chaos_summary(seeds=(0, 1), num_nodes=4, worker_counts=(1, 2))
    payload = {
        "config": {
            "scaled_tuples": scaled_tuples,
            "num_nodes": num_nodes,
            "seed": seed,
            "repeats": repeats,
            "warmup": warmup,
        },
        "kernels": kernels,
        "joins": joins,
        "scaling": scaling,
        "chaos": chaos,
        "peak_rss_bytes": peak_rss_bytes(),
        "analysis": lint_summary(),
    }
    write_report(out_path, payload)
    print(f"wrote {out_path}")
    for label, row in joins.items():
        peak = row["fused_peak_bytes"]
        peak_note = f"  peak {peak / 1e6:.1f}MB" if peak is not None else ""
        print(
            f"  {label:7s} {row['fused_seconds']:.4f}s{peak_note}"
        )
    print(
        f"  chaos   {chaos['runs']} runs, "
        f"{chaos['faults_injected']:.0f} faults injected, "
        f"{chaos['retransmit_bytes']:.0f} bytes retransmitted"
    )
    failures = []
    if not chaos["ok"]:
        failures.append(f"chaos: {chaos['failures']} run(s) violated invariants")
    # bench_joins already hard-fails on any fault-free retransmitted
    # byte; re-assert here so the gate is visible in one place.
    failures.extend(
        f"{label}: fault-free retransmit_bytes = {row['retransmit_bytes']}"
        for label, row in joins.items()
        if row["retransmit_bytes"] != 0.0
    )
    failures.extend(check_scaling(scaling))
    baseline_file = Path(baseline_path)
    if not baseline_file.exists() or not baseline_file.read_text().strip():
        print(f"no baseline at {baseline_path}; skipping regression check")
    else:
        failures.extend(
            check_regressions(
                kernels,
                json.loads(baseline_file.read_text()),
                threshold,
                joins=joins if measure_memory else None,
            )
        )
    for failure in failures:
        print(f"REGRESSION {failure}")
    if not failures:
        print(f"all kernels within {threshold}x of baseline; chaos ok")
    return 1 if failures else 0
