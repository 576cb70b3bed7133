"""One benchmark run of one workload, in its own process.

``run.py`` starts this module with a cleaned environment.  It imports the
program from ``src/`` of the checkout, runs the workload and prints one
JSON object.  Tests call :func:`run_workload` directly with shrunken
configurations.

The program is driven only through its public API: the operator registry
(``repro.joins.registry.create(...).run``), the synthetic workload
generators, the serve benchmark's tables and query mix, ``QueryService``
and ``compile_plan``.  It runs at its defaults: serial phases, no fault
plan.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7
#: A measured window has at least this many rounds, and one per input.
MIN_JOIN_ROUNDS = 3
#: A latency percentile needs this many samples beyond it ...
SAMPLES_BEYOND_PERCENTILE = 10
#: ... so the serve loop runs until it has this many (ten beyond p95).
MIN_SERVE_SAMPLES = 200
#: The serve loop pauses this often to time the calibration kernel.
SERVE_CHUNK_S = 1.0
#: Waiting on one served query longer than this counts it as failed.
QUERY_TIMEOUT_S = 60.0

#: Counts a join layer reports besides ``share`` and ``calls``; the
#: network layer adds ``bytes.<message class>`` (see :func:`layer_counts`).
LAYER_COUNTS = {
    "core.tracking": ("entries", "keys"),
    "core.schedule": ("keys", "sharded_keys"),
    "joins.local": ("output_rows",),
    "cluster.network": ("messages",),
}

#: Every workload times two operations: ``op``, the one it is about, and
#: ``compare``, the one it is measured against.  Metrics are named by the
#: role, so that every workload reports the same names.
ROLES = ("op", "compare")


@dataclass(frozen=True)
class JoinConfig:
    """A join workload: one generated input, two algorithms over it."""

    kind: str  # "unique" (Figure 3) or "hotkey" (Zipf build side)
    num_nodes: int
    tuples: int
    op: str
    compare: str
    distinct_keys: int = 0
    skew: float = 0.0
    row_bytes_r: int = 20
    row_bytes_s: int = 60
    #: Inputs per run, generated from seeds ``seed * inputs + i``.  Join
    #: metrics are means over the inputs, which evens out seed-to-seed
    #: differences in the work itself.
    inputs: int = 1

    @property
    def algorithms(self) -> tuple[str, str]:
        return (self.compare, self.op)

    def role(self, algorithm: str) -> str:
        return "op" if algorithm == self.op else "compare"


@dataclass(frozen=True)
class ServeConfig:
    """A closed loop of ``clients`` over a query service (``op``), and the
    same queries run one at a time without it (``compare``)."""

    num_nodes: int = 8
    tuples: int = 20_000
    clients: int = 2
    max_inflight: int = 2


WORKLOADS: dict[str, JoinConfig | ServeConfig] = {
    "uniq-16n": JoinConfig("unique", 16, 500_000, op="4TJ", compare="HJ"),
    "uniq-64n": JoinConfig("unique", 64, 500_000, op="4TJ", compare="HJ"),
    # Which hot keys share a node changes with the seed, and with it the
    # shard plans and local-join sizes: one input's 4TJ-shard time moves
    # by 10% from seed to seed, and plain 4TJ's by 15%, so a run averages
    # six inputs.
    "hotkey-16n": JoinConfig(
        "hotkey", 16, 50_000, op="4TJ-shard", compare="4TJ",
        distinct_keys=5_000, skew=1.2, row_bytes_r=30, inputs=6,
    ),
    "serve-closed": ServeConfig(),
}


@dataclass
class Verdict:
    """Operations attempted and failed, with the first failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, problems: list[str]) -> None:
        """Count one operation; it failed if ``problems`` is non-empty."""
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.reasons.extend(problems[: max(0, 10 - len(self.reasons))])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Calibration:
    """A fixed kernel, timed next to every measurement.

    On a shared host, co-tenant load changes the speed of everything for
    seconds to minutes at a time, by 15-30% — more than any useful bound.
    The kernel does the two kinds of work a join does: memory-bound NumPy
    passes (sort, gather and bincount over 1M integers) and per-message
    Python bookkeeping (a 128 x 128 message ledger).  It slows down with
    the host.  Each measured time is scaled by ``REFERENCE_S`` over the
    mean of the kernel times just before and just after it, giving its
    seconds on a host where the kernel takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.035
    NODES = 128

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20140622)
        self._np = np
        self._data = rng.integers(0, 1 << 40, 1_000_000)
        self._order = rng.permutation(len(self._data))
        self.samples: list[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        np, nodes = self._np, self.NODES
        start = time.perf_counter()
        np.sort(self._data)
        np.bincount(self._data[self._order] & 0xFFFF)
        ledger: dict = defaultdict(float)
        inboxes: list[list] = [[] for _ in range(nodes)]
        for src in range(nodes):
            for dst in range(nodes):
                message = _Message(src, dst, float(src ^ dst))
                inboxes[dst].append(message)
                ledger[src, dst] += message.nbytes
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale factor for what ran since the previous kernel run."""
        before, self._last = self._last, self.sample()
        return self.REFERENCE_S / ((before + self._last) / 2)

    def record(self) -> dict:
        return {
            "reference_s": self.REFERENCE_S,
            "median_s": statistics.median(self.samples),
            "samples": len(self.samples),
        }


@dataclass(slots=True)
class _Message:
    src: int
    dst: int
    nbytes: float


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median_metric(values: list[float], unit: str) -> dict:
    return _metric(statistics.median(values), unit)


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _rounded(values: list[float]) -> list[float]:
    return [round(v, 6) for v in values]


# -- join workloads ---------------------------------------------------------


def make_join_input(config: JoinConfig, seed: int):
    from repro.workloads.synthetic import hot_key_workload, unique_keys_workload

    if config.kind == "unique":
        return unique_keys_workload(
            num_nodes=config.num_nodes,
            scaled_tuples=config.tuples,
            row_bytes_r=config.row_bytes_r,
            row_bytes_s=config.row_bytes_s,
            seed=seed,
        )
    return hot_key_workload(
        num_nodes=config.num_nodes,
        tuples_per_table=config.tuples,
        distinct_keys=config.distinct_keys,
        skew=config.skew,
        row_bytes_r=config.row_bytes_r,
        row_bytes_s=config.row_bytes_s,
        seed=seed,
    )


def expected_rows(config: JoinConfig, workload) -> int:
    """The join's true output cardinality.

    Unique keys: the generator's own count.  Hot keys: an independent
    sum over keys of count_R(k) * count_S(k) from the generated keys.
    """
    import numpy as np

    if config.kind == "unique":
        return int(workload.expected_output_rows)
    keys_r = workload.table_r.all_keys()
    keys_s = workload.table_s.all_keys()
    size = int(max(keys_r.max(initial=0), keys_s.max(initial=0))) + 1
    counts_r = np.bincount(keys_r, minlength=size).astype(np.int64)
    counts_s = np.bincount(keys_s, minlength=size).astype(np.int64)
    return int(counts_r @ counts_s)


@dataclass
class Timings:
    """Wall seconds per algorithm and input, raw and calibrated."""

    raw: dict[str, list[list[float]]]
    scaled: dict[str, list[list[float]]]

    def seconds(self, algorithm: str) -> float:
        """Mean over the inputs of the median calibrated wall time."""
        return statistics.fmean(statistics.median(v) for v in self.scaled[algorithm])

    def runs(self, algorithm: str) -> int:
        return sum(len(v) for v in self.raw[algorithm])


class JoinBench:
    """One generated input plus a checked reference result per algorithm."""

    def __init__(self, config: JoinConfig, seed: int, verdict: Verdict):
        from repro.encoding.dictionary import DictionaryEncoding
        from repro.joins import registry
        from repro.joins.base import JoinSpec

        self.config = config
        self.verdict = verdict
        self.create = registry.create
        self.spec = JoinSpec(
            encoding=DictionaryEncoding(), materialize=False, group_locations=True
        )
        self.workload = make_join_input(config, seed)
        self.expected = expected_rows(config, self.workload)
        self.reference: dict = {}
        for algorithm in config.algorithms:
            result = self.run(algorithm)[0]
            verdict.check(self.problems(algorithm, result))
            self.reference[algorithm] = result

    def run(self, algorithm: str, runner=None):
        """One join; returns ``(result, wall seconds)``.

        ``runner(fn, *args)`` calls the join and returns ``(result,
        wall)``; tracing passes its root span.
        """
        w = self.workload
        args = (self.create(algorithm).run, w.cluster, w.table_r, w.table_s, self.spec)
        if runner is not None:
            return runner(*args)
        start = time.perf_counter()
        result = args[0](*args[1:])
        return result, time.perf_counter() - start

    def problems(self, algorithm: str, result) -> list[str]:
        """What is wrong with one join result: rows, retransmits, ledger drift."""
        problems = []
        if result.output_rows != self.expected:
            problems.append(f"{algorithm}: {result.output_rows} rows, expected {self.expected}")
        if result.traffic.retransmit_bytes != 0:
            problems.append(f"{algorithm}: {result.traffic.retransmit_bytes} B retransmitted")
        reference = self.reference.get(algorithm)
        if reference is not None and result.breakdown() != reference.breakdown():
            problems.append(f"{algorithm}: per-class ledger differs between repeats")
        return problems


def rounds(benches: list[JoinBench], seconds: float, cal: Calibration, runner=None,
           inspect=None) -> Timings:
    """Rounds over the inputs in turn, each running every algorithm once.

    Runs for ``seconds``, at least ``MIN_JOIN_ROUNDS`` rounds and one
    round per input; every join is checked.  ``inspect(algorithm, result, wall,
    factor)`` returns extra problems of one join; ``factor`` is its
    calibration factor.
    """
    algorithms = benches[0].config.algorithms
    timings = Timings(
        {a: [[] for _ in benches] for a in algorithms},
        {a: [[] for _ in benches] for a in algorithms},
    )
    deadline = time.perf_counter() + seconds
    done = 0
    minimum = max(MIN_JOIN_ROUNDS, len(benches))
    while done < minimum or time.perf_counter() < deadline:
        index = done % len(benches)
        bench = benches[index]
        for algorithm in algorithms:
            gc.collect()  # each join starts from the same collector state
            result, wall = bench.run(algorithm, runner)
            factor = cal.factor()
            problems = bench.problems(algorithm, result)
            if inspect is not None:
                problems += inspect(algorithm, result, wall, factor)
            bench.verdict.check(problems)
            timings.raw[algorithm][index].append(wall)
            timings.scaled[algorithm][index].append(wall * factor)
        done += 1
    return timings


def input_seeds(config: JoinConfig, seed: int) -> list[int]:
    return [seed * config.inputs + i for i in range(config.inputs)]


def run_join(config: JoinConfig, seed: int, seconds: float, verdict: Verdict, cal):
    from repro.timing.hardware import paper_cluster_2014

    seeds = input_seeds(config, seed)
    benches: list = [None] * len(seeds)
    setups, raw_setups = [], []
    for repeat in range(max(SETUP_REPEATS, len(seeds))):
        index = repeat % len(seeds)
        benches[index] = None  # free an input before generating it again
        start = time.perf_counter()
        benches[index] = JoinBench(config, seeds[index], verdict)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * cal.factor())
    timings = rounds(benches, seconds, cal)
    model = paper_cluster_2014(config.num_nodes)

    def mean(algorithm: str, value) -> float:
        return statistics.fmean(value(bench.reference[algorithm]) for bench in benches)

    # The same figures under the algorithm's name, for the summary.
    named = {}
    for algorithm in config.algorithms:
        named[f"join_s.{algorithm}"] = timings.seconds(algorithm)
        named[f"net_bytes.{algorithm}"] = mean(algorithm, lambda r: r.network_bytes)
        named[f"max_recv_bytes.{algorithm}"] = mean(
            algorithm, lambda r: r.traffic.max_received_bytes
        )
        named[f"model_s.{algorithm}"] = mean(
            algorithm, lambda r: model.total_seconds(r.profile)
        )
    op, compare = config.op, config.compare
    metrics = {
        "setup_s": _median_metric(setups, "s"),
        "op_s": _metric(named[f"join_s.{op}"], "s"),
        "compare_s": _metric(named[f"join_s.{compare}"], "s"),
        "net_bytes": _metric(named[f"net_bytes.{op}"], "B"),
        "max_recv_bytes": _metric(named[f"max_recv_bytes.{op}"], "B"),
        "model_s": _metric(named[f"model_s.{op}"], "s"),
    }
    detail = {
        "named": named,
        "input_seeds": seeds,
        "setup_s_raw": _rounded(raw_setups),
        "join_s_raw": {a: [_rounded(v) for v in timings.raw[a]] for a in config.algorithms},
        "expected_rows": [bench.expected for bench in benches],
        "bytes_by_class": {
            a: [bench.reference[a].breakdown() for bench in benches]
            for a in config.algorithms
        },
    }
    return metrics, detail


def layer_counts() -> dict[str, tuple[str, ...]]:
    from repro.cluster.network import MessageClass

    counts = dict(LAYER_COUNTS)
    counts["cluster.network"] += tuple(f"bytes.{c.value}" for c in MessageClass)
    return counts


def count_traffic(tracer, traffic) -> None:
    """Add one operation's messages and bytes by class to the network layer."""
    counts = {f"bytes.{name}": nbytes for name, nbytes in traffic.breakdown().items()}
    tracer.count("cluster.network", {"messages": traffic.message_count, **counts})


def fold(tracer, total, wall: float, factor: float, what: str) -> list[str]:
    """Check that ``tracer``'s layer self times sum to ``wall``, then add
    them, scaled by ``factor``, into ``total``."""
    layer_sum = sum(tracer.self_s.values())
    for layer in tracer.self_s:
        tracer.self_s[layer] *= factor
    total.merge(tracer)
    if abs(layer_sum - wall) > 1e-4 + 1e-3 * wall:
        return [f"{what}: layer self times sum to {layer_sum:.6f}s, traced wall is "
                f"{wall:.6f}s"]
    return []


def layer_metrics(totals: dict, operations: dict[str, int]) -> dict:
    """Per-layer metrics of each role.

    ``share`` is the layer's self time over the role's traced wall time
    (so a role's shares, ``unattributed`` included, sum to 1); ``calls``
    and the counts are per operation.
    """
    from spans import LAYERS, ROOT

    counts = layer_counts()
    metrics = {}
    for role in ROLES:
        total, n = totals[role], operations[role]
        wall = sum(total.self_s.values())
        for layer in (*LAYERS, ROOT):
            metrics[f"{role}.{layer}.share"] = _metric(total.self_s[layer] / wall, "ratio")
            if layer == ROOT:
                continue
            metrics[f"{role}.{layer}.calls"] = _metric(total.calls[layer] / n, "count")
            for name in counts.get(layer, ()):
                unit = "B" if name.startswith("bytes.") else "count"
                value = total.counts[f"{layer}.{name}"] / n
                metrics[f"{role}.{layer}.{name}"] = _metric(value, unit)
    return metrics


def layer_seconds(totals: dict, operations: dict[str, int]) -> dict:
    """Calibrated self seconds per operation of each role's layers."""
    return {
        role: {layer: round(s / operations[role], 9) for layer, s in totals[role].self_s.items()}
        for role in ROLES
    }


def trace_join(config: JoinConfig, seed: int, seconds: float, verdict: Verdict, cal):
    """Untraced then traced rounds; per-layer figures per join run.

    Layer self times are scaled by their join's calibration factor, like
    ``op_s``; the check that they sum to the wall time uses raw times.
    """
    from spans import JOIN_HOOKS, SERVE_HOOKS, HookSet, Tracer

    benches = [JoinBench(config, s, verdict) for s in input_seeds(config, seed)]
    untraced = rounds(benches, seconds / 2, cal)
    totals = {role: Tracer() for role in ROLES}
    sum_errors: list[float] = []

    # The query layers are hooked too; a join run never reaches them.
    with HookSet(JOIN_HOOKS + SERVE_HOOKS) as hooks:

        def inspect(algorithm, result, wall, factor):
            """Check the run's span sums, then fold its tracer into the totals."""
            tracer, hooks.tracer = hooks.tracer, Tracer()
            sum_errors.append(abs(sum(tracer.self_s.values()) - wall) / wall)
            count_traffic(tracer, result.traffic)
            return fold(tracer, totals[config.role(algorithm)], wall, factor, algorithm)

        traced = rounds(benches, seconds / 2, cal, runner=hooks.root, inspect=inspect)
        absent = list(hooks.absent)

    operations = {config.role(a): traced.runs(a) for a in config.algorithms}
    metrics = layer_metrics(totals, operations)
    metrics["serve.queue.share"] = _metric(0.0, "ratio")  # no service, no queue
    metrics["serve.cache.hit_rate"] = _metric(0.0, "ratio")  # ... and no plan cache
    overhead = sum(traced.seconds(a) for a in config.algorithms) / sum(
        untraced.seconds(a) for a in config.algorithms
    )
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    detail = {
        "hooks_absent": absent,
        "traced_runs": {a: traced.runs(a) for a in config.algorithms},
        "untraced_runs": {a: untraced.runs(a) for a in config.algorithms},
        "max_layer_sum_error": max(sum_errors),
        "layer_self_s": layer_seconds(totals, operations),
    }
    return metrics, detail


# -- serve workload ---------------------------------------------------------


@dataclass
class Window:
    """Measured samples, each scaled by the calibration of its segment.

    Closed-loop chunks give the served queries (``op``); between chunks,
    one pass over the mix without the service gives ``compare``.
    """

    seconds: float = 0.0  # calibrated length of the closed-loop chunks
    completed: int = 0  # queries completed within their chunk
    latencies: list[float] = field(default_factory=list)
    queue_s: list[float] = field(default_factory=list)
    alone_s: list[list[float]] = field(default_factory=list)  # per plan of the mix

    @property
    def qps(self) -> float:
        return self.completed / self.seconds

    @property
    def alone_seconds(self) -> float:
        """Mean over the mix of each plan's median time alone.

        The plans' times span more than 10x; averaging per-plan medians
        keeps the figure off the boundary between two plans' clusters.
        """
        return statistics.fmean(statistics.median(v) for v in self.alone_s)

    @property
    def alone_runs(self) -> int:
        return sum(len(v) for v in self.alone_s)


class ServeTrace:
    """Per-role layer totals of a traced window, folded segment by segment."""

    def __init__(self, hooks):
        from spans import ROOT, Tracer

        self.hooks = hooks
        self.root = ROOT
        self.new_tracer = Tracer
        self.totals = {role: Tracer() for role in ROLES}

    def start(self) -> None:
        self.hooks.tracer = self.new_tracer()

    def observe(self, result) -> None:
        count_traffic(self.hooks.tracer, result.traffic)

    def stop(self, role: str, factor: float) -> list[str]:
        """Fold the segment's spans; served queries overlap, so the check is
        against the sum of their root spans rather than the segment's wall."""
        tracer = self.hooks.tracer
        wall = tracer.wall_s[self.root]
        return fold(tracer, self.totals[role], wall, factor, f"{role} segment")


class ServeBench:
    """Resident tables, the query mix, its reference results, a warm service."""

    def __init__(self, config: ServeConfig, seed: int, verdict: Verdict):
        from repro.cluster.cluster import Cluster
        from repro.joins.base import JoinSpec
        from repro.query import executor
        from repro.serve.bench import serve_query_mix, serve_tables
        from repro.serve.service import QueryRequest, QueryService
        from repro.timing.hardware import paper_cluster_2014

        self.config = config
        self.verdict = verdict
        self.spec = JoinSpec()
        self.request = QueryRequest
        self.cluster = Cluster
        self.executor = executor
        #: Called with every checked result while tracing.
        self.observe = None
        tables = serve_tables(config.num_nodes, config.tuples, seed)
        self.mix = serve_query_mix(tables)
        self.service = QueryService(tables, max_inflight=config.max_inflight)
        try:
            tickets = [self.submit(i) for i in range(len(self.mix))]
            outcomes = [ticket.outcome(QUERY_TIMEOUT_S) for ticket in tickets]
            results = [self.alone(i) for i in range(len(self.mix))]
            self.reference = [(r.output_rows, r.network_bytes) for r in results]
            for index, outcome in enumerate(outcomes):
                self.check(index, outcome)
        except BaseException:
            self.service.close()
            raise
        model = paper_cluster_2014(config.num_nodes)
        # Per query of the mix, like the join workloads' per join.
        self.figures = {
            "net_bytes": statistics.fmean(r.network_bytes for r in results),
            "max_recv_bytes": statistics.fmean(r.traffic.max_received_bytes for r in results),
            "model_s": statistics.fmean(
                sum(model.total_seconds(p) for p in r.profiles) for r in results
            ),
        }

    def submit(self, index: int):
        return self.service.submit(self.request(plan=self.mix[index], spec=self.spec))

    def alone(self, index: int):
        """One query without the service: compiled and run on a fresh cluster."""
        plan = self.executor.compile_plan(self.mix[index])
        return plan.run(self.cluster(self.config.num_nodes), self.spec)

    def check(self, index: int, outcome) -> None:
        if not outcome.ok:
            self.verdict.check([f"plan {index}: query failed: {outcome.error!r}"])
        else:
            self.check_result(index, outcome.result)

    def check_result(self, index: int, result) -> None:
        problems = []
        got = (result.output_rows, result.network_bytes)
        if got != self.reference[index]:
            problems.append(f"plan {index}: rows/bytes {got}, reference "
                            f"{self.reference[index]}")
        if result.traffic.retransmit_bytes != 0:
            problems.append(f"plan {index}: {result.traffic.retransmit_bytes} B "
                            "retransmitted")
        if self.observe is not None:
            self.observe(result)
        self.verdict.check(problems)

    def plan_order(self, rng):
        """Endless plan indexes: each block of the mix, shuffled by ``rng``."""
        while True:
            yield from (int(i) for i in rng.permutation(len(self.mix)))

    def chunk(self, seconds: float, order) -> tuple[int, list[tuple[float, float]]]:
        """``clients`` closed-loop clients for ``seconds``.

        Each client submits its next query only when its previous one
        completed, so the service always has ``clients`` queries in
        flight.  Latency runs from submit to completion.  Returns the
        queries completed within ``seconds`` (the last ones in flight
        finish after it) and ``(latency, queue)`` seconds per query.
        """
        lock = threading.Lock()
        samples: list[tuple[float, float]] = []
        completed = 0
        start = time.perf_counter()
        deadline = start + seconds

        def client() -> None:
            nonlocal completed
            while time.perf_counter() < deadline:
                with lock:
                    index = next(order)
                submitted = time.perf_counter()
                try:
                    outcome = self.submit(index).outcome(QUERY_TIMEOUT_S)
                except Exception as error:  # a refused or lost query is a failure
                    self.verdict.check([f"plan {index}: {error!r}"])
                    continue
                finished = time.perf_counter()
                with lock:
                    samples.append((finished - submitted, outcome.queue_seconds))
                    completed += finished <= deadline
                self.check(index, outcome)

        threads = [threading.Thread(target=client) for _ in range(self.config.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return completed, samples

    def alone_pass(self, runner=None) -> list[float]:
        """Every query of the mix once, one at a time without the service;
        returns the wall seconds of each.  ``runner`` is tracing's root span."""
        walls = []
        for index in range(len(self.mix)):
            if runner is None:
                start = time.perf_counter()
                result = self.alone(index)
                walls.append(time.perf_counter() - start)
            else:
                result, wall = runner(self.alone, index)
                walls.append(wall)
            self.check_result(index, result)
        return walls

    def window(self, seconds: float, order, cal: Calibration, trace=None) -> Window:
        """Calibrated segments for ``seconds`` and at least ``MIN_SERVE_SAMPLES``
        served queries: a closed-loop chunk, then a pass without the service."""
        window = Window(alone_s=[[] for _ in self.mix])
        start = time.perf_counter()
        hard_stop = start + 3 * seconds + 30
        while time.perf_counter() < hard_stop and (
            time.perf_counter() - start < seconds
            or len(window.latencies) < MIN_SERVE_SAMPLES
        ):
            gc.collect()
            chunk_s = min(SERVE_CHUNK_S, seconds)
            if trace is not None:
                trace.start()
            completed, samples = self.chunk(chunk_s, order)
            factor = cal.factor()
            if trace is not None:
                self.verdict.check(trace.stop("op", factor))
            window.seconds += chunk_s * factor
            window.completed += completed
            for latency, queue_s in samples:
                window.latencies.append(latency * factor)
                window.queue_s.append(queue_s * factor)

            gc.collect()
            if trace is not None:
                trace.start()
            walls = self.alone_pass(trace.hooks.root if trace is not None else None)
            factor = cal.factor()
            if trace is not None:
                self.verdict.check(trace.stop("compare", factor))
            for index, wall in enumerate(walls):
                window.alone_s[index].append(wall * factor)
        return window

    def cache_counts(self) -> tuple[int, int]:
        cache = self.service.stats()["cache"]
        return cache["hits"], cache["misses"]

    def close(self) -> None:
        self.service.close()


def run_serve(config: ServeConfig, seed: int, seconds: float, verdict: Verdict, cal):
    import numpy as np

    setups, raw_setups = [], []
    bench = None
    for _ in range(SETUP_REPEATS):
        if bench is not None:
            bench.close()
        start = time.perf_counter()
        bench = ServeBench(config, seed, verdict)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * cal.factor())
    try:
        order = bench.plan_order(np.random.default_rng(seed))
        window = bench.window(seconds, order, cal)
    finally:
        bench.close()
    latencies = window.latencies
    p95 = _percentile(latencies, 95)
    beyond = sum(1 for value in latencies if value > p95)
    if beyond < SAMPLES_BEYOND_PERCENTILE:
        verdict.check([f"only {beyond} latency samples beyond p95"])
    named = {
        "qps": window.qps,
        "query_p50_s": _percentile(latencies, 50),
        "query_p95_s": p95,
        "alone_s": window.alone_seconds,
    }
    metrics = {
        "setup_s": _median_metric(setups, "s"),
        "op_s": _metric(named["query_p50_s"], "s"),
        "compare_s": _metric(named["alone_s"], "s"),
        **{name: _metric(value, "B" if "bytes" in name else "s")
           for name, value in bench.figures.items()},
    }
    detail = {
        "named": named,
        "setup_s_raw": _rounded(raw_setups),
        "queries": len(latencies),
        "alone_queries": window.alone_runs,
        "alone_s_by_plan": [round(statistics.median(v), 6) for v in window.alone_s],
        "samples_beyond_p95": beyond,
    }
    return metrics, detail


def trace_serve(config: ServeConfig, seed: int, seconds: float, verdict: Verdict, cal):
    """Untraced then traced windows on one warm service."""
    import numpy as np

    from spans import JOIN_HOOKS, SERVE_HOOKS, SERVICE_ROOT, HookSet

    bench = ServeBench(config, seed, verdict)
    order = bench.plan_order(np.random.default_rng(seed))
    try:
        hits0, misses0 = bench.cache_counts()
        untraced = bench.window(seconds / 2, order, cal)
        with HookSet(JOIN_HOOKS + SERVE_HOOKS + SERVICE_ROOT) as hooks:
            trace = ServeTrace(hooks)
            bench.observe = trace.observe
            traced = bench.window(seconds / 2, order, cal, trace)
            bench.observe = None
        hits, misses = bench.cache_counts()
    finally:
        bench.close()
    hits, misses = hits - hits0, misses - misses0
    operations = {"op": len(traced.latencies), "compare": traced.alone_runs}
    metrics = layer_metrics(trace.totals, operations)
    queued = sum(untraced.queue_s) / sum(untraced.latencies)
    metrics["serve.queue.share"] = _metric(queued, "ratio")
    metrics["serve.cache.hit_rate"] = _metric(hits / max(1, hits + misses), "ratio")
    metrics["trace.overhead"] = _metric(untraced.qps / traced.qps, "ratio")
    detail = {
        "hooks_absent": hooks.absent,
        "traced_queries": operations,
        "layer_self_s": layer_seconds(trace.totals, operations),
    }
    return metrics, detail


# -- entry point ------------------------------------------------------------


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, config=None) -> dict:
    """Run one workload: the result object, plus its provenance record."""
    import numpy

    config = config or WORKLOADS[name]
    verdict = Verdict()
    cal = Calibration()
    if isinstance(config, ServeConfig):
        runner = trace_serve if trace else run_serve
    else:
        runner = trace_join if trace else run_join
    metrics, detail = runner(config, seed, seconds, verdict, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    else:
        metrics["success_rate"] = _metric(1.0 - verdict.error_rate, "ratio")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": asdict(config),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "error_rate": verdict.error_rate,
        "failures": verdict.reasons,
        "peak_rss_mb": peak_rss_mb,
        "calibration": cal.record(),
        **detail,
    }
    return {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
        "record": record,
    }


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import_program()
    print(json.dumps(run_workload(name, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
