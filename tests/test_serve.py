"""Tests for the concurrent query service: cache, pool, admission."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import Cluster, JoinSpec
from repro.costmodel import bump_stats_epoch, stats_epoch
from repro.errors import (
    AdmissionError,
    ParallelError,
    QueryTimeoutError,
    ValidationError,
)
from repro.query import Join, RunContext, Scan, compile_plan
from repro.query import executor as executor_module
from repro.query.predicates import Predicate
from repro.serve import (
    PlanCache,
    QueryRequest,
    QueryService,
    SharedExecutor,
    WarmExecutorPool,
)
from repro.serve.bench import serve_query_mix, serve_tables

NUM_NODES = 4


@pytest.fixture
def tables():
    return serve_tables(num_nodes=NUM_NODES, scaled_tuples=1500, seed=3)


def _join_plan(tables):
    return Join(
        Scan(tables["serve_orders"]), Scan(tables["serve_items"]), algorithm="HJ"
    )


class GatePredicate(Predicate):
    """Keep-all predicate that blocks execution until released.

    Lets tests hold a query inside ``execute`` deterministically (to
    fill the admission queue, force a mid-run deadline, or observe
    scheduling order).  ``repr`` is pinned so fingerprints stay stable
    across instances.
    """

    def __init__(self, label: str = "gate"):
        self.label = label
        self.event = threading.Event()
        self.entered = threading.Event()
        self.order: list[str] | None = None

    def mask(self, partition):
        # Record order only on the first partition: the scan applies
        # the predicate once per partition.
        if self.order is not None and not self.entered.is_set():
            self.order.append(self.label)
        self.entered.set()
        if not self.event.wait(timeout=30):
            raise TimeoutError(f"gate {self.label!r} never released")
        return np.ones(len(partition.keys), dtype=bool)

    def __repr__(self) -> str:
        return f"GatePredicate({self.label!r})"


class TestPlanFingerprint:
    def test_structurally_identical_plans_match(self, tables):
        assert _join_plan(tables).fingerprint() == _join_plan(tables).fingerprint()

    def test_algorithm_changes_fingerprint(self, tables):
        auto = Join(Scan(tables["serve_orders"]), Scan(tables["serve_items"]))
        assert auto.fingerprint() != _join_plan(tables).fingerprint()

    def test_epoch_bump_changes_fingerprint(self, tables):
        before = _join_plan(tables).fingerprint()
        bump_stats_epoch("serve_orders")
        assert _join_plan(tables).fingerprint() != before

    def test_table_names_in_scan_order(self, tables):
        assert _join_plan(tables).table_names() == ("serve_orders", "serve_items")


class TestPlanCache:
    def test_hit_miss_counters(self, tables):
        cache = PlanCache()
        entry, hit = cache.get_or_compile(_join_plan(tables))
        assert not hit and cache.misses == 1
        again, hit = cache.get_or_compile(_join_plan(tables))
        assert hit and cache.hits == 1
        assert again is entry
        assert cache.stats()["hit_rate"] == 0.5
        cache.close()

    def test_capacity_eviction(self, tables):
        cache = PlanCache(capacity=1)
        cache.get_or_compile(_join_plan(tables))
        cache.get_or_compile(Scan(tables["serve_orders"]))
        assert len(cache) == 1
        assert cache.evictions == 1
        cache.close()

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            PlanCache(capacity=0)

    def test_epoch_bump_invalidates_matching_entries(self, tables):
        cache = PlanCache()
        cache.get_or_compile(_join_plan(tables))
        cache.get_or_compile(Scan(tables["serve_items"]))
        bump_stats_epoch("serve_orders")
        # Only the join (which scans serve_orders) is dropped.
        assert len(cache) == 1
        assert cache.invalidations == 1
        cache.close()

    def test_global_bump_invalidates_everything(self, tables):
        cache = PlanCache()
        cache.get_or_compile(_join_plan(tables))
        cache.get_or_compile(Scan(tables["serve_items"]))
        bump_stats_epoch()
        assert len(cache) == 0
        assert cache.invalidations == 2
        cache.close()

    def test_close_unregisters_listener(self, tables):
        cache = PlanCache()
        cache.get_or_compile(_join_plan(tables))
        cache.close()
        bump_stats_epoch("serve_orders")
        assert len(cache) == 1  # listener gone; entry untouched

    def test_epochs_are_per_table(self):
        base_r = stats_epoch("R_epoch_test")
        base_s = stats_epoch("S_epoch_test")
        bump_stats_epoch("R_epoch_test")
        assert stats_epoch("R_epoch_test") == base_r + 1
        assert stats_epoch("S_epoch_test") == base_s


class TestWarmExecutorPool:
    def test_lease_shares_one_executor(self):
        with WarmExecutorPool(workers=2) as pool:
            first, second = pool.lease(), pool.lease()
            assert first is second
            assert isinstance(first, SharedExecutor)
            assert pool.leases == 2

    def test_close_on_lease_is_noop(self):
        with WarmExecutorPool(workers=2) as pool:
            lease = pool.lease()
            lease.close()
            assert lease.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_lease_after_shutdown_raises(self):
        pool = WarmExecutorPool(workers=1)
        pool.shutdown()
        with pytest.raises(ParallelError):
            pool.lease()

    def test_dispatch_accounting(self):
        with WarmExecutorPool(workers=1, warm=False) as pool:
            pool.lease().map(lambda x: x, [1, 2])
            stats = pool.stats()
            assert stats["dispatches"] == 1
            assert stats["tasks"] == 2


class TestQueryService:
    def test_matches_solo_run(self, tables):
        plan = _join_plan(tables)
        solo = compile_plan(plan).run(Cluster(NUM_NODES), JoinSpec())
        with QueryService(tables, workers=1, max_inflight=2) as service:
            result = service.submit(plan).result()
        assert result.output_rows == solo.output_rows
        assert result.network_bytes == solo.network_bytes

    def test_cache_hit_flagged_on_resubmission(self, tables):
        with QueryService(tables, workers=1) as service:
            cold = service.submit(_join_plan(tables)).outcome()
            warm = service.submit(_join_plan(tables)).outcome()
        assert not cold.cache_hit and warm.cache_hit
        assert cold.fingerprint == warm.fingerprint
        assert warm.run_seconds > 0.0

    def test_epoch_bump_retires_cached_plan(self, tables):
        with QueryService(tables, workers=1) as service:
            service.submit(_join_plan(tables)).outcome()
            bump_stats_epoch("serve_orders")
            after = service.submit(_join_plan(tables)).outcome()
        assert not after.cache_hit

    def test_submit_after_close_rejected(self, tables):
        service = QueryService(tables, workers=1)
        service.close()
        with pytest.raises(AdmissionError):
            service.submit(_join_plan(tables))

    def test_admission_queue_bound(self, tables):
        gate = GatePredicate()
        blocked = Scan(tables["serve_orders"], gate)
        cheap = Scan(tables["serve_items"])
        service = QueryService(tables, workers=1, max_inflight=1, max_queue=2)
        try:
            running = service.submit(blocked)
            assert gate.entered.wait(timeout=30)
            waiting = [service.submit(cheap) for _ in range(2)]
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(cheap)
            assert excinfo.value.queued == 2
            assert excinfo.value.limit == 2
            gate.event.set()
            assert all(o.ok for o in service.drain([running, *waiting]))
            assert service.stats()["service"]["rejected"] == 1
        finally:
            gate.event.set()
            service.close()

    def test_fifo_within_priority(self, tables):
        gate = GatePredicate("hold")
        order: list[str] = []
        gates = {}
        plans = {}
        for label, priority in (("a", 5), ("b", 0), ("c", 5), ("d", 0)):
            tag_gate = GatePredicate(label)
            tag_gate.order = order
            tag_gate.event.set()  # record order, don't block
            gates[label] = tag_gate
            plans[label] = (Scan(tables["serve_orders"], tag_gate), priority)
        service = QueryService(tables, workers=1, max_inflight=1, max_queue=8)
        try:
            held = service.submit(Scan(tables["serve_orders"], gate))
            assert gate.entered.wait(timeout=30)
            tickets = [
                service.submit(
                    QueryRequest(plan=plan, priority=priority, tag=label)
                )
                for label, (plan, priority) in plans.items()
            ]
            gate.event.set()
            service.drain([held, *tickets])
            # Priority 0 before priority 5; FIFO inside each level.
            assert order == ["b", "d", "a", "c"]
        finally:
            gate.event.set()
            service.close()

    def test_timeout_in_queue(self, tables):
        gate = GatePredicate()
        service = QueryService(tables, workers=1, max_inflight=1, max_queue=4)
        try:
            held = service.submit(Scan(tables["serve_orders"], gate))
            assert gate.entered.wait(timeout=30)
            doomed = service.submit(
                QueryRequest(plan=Scan(tables["serve_items"]), timeout=0.0)
            )
            gate.event.set()
            outcome = doomed.outcome()
            assert not outcome.ok
            assert isinstance(outcome.error, QueryTimeoutError)
            assert outcome.error.where == "queued"
            assert service.drain([held])[0].ok
            assert service.stats()["service"]["timed_out"] == 1
        finally:
            gate.event.set()
            service.close()

    def test_timeout_mid_run(self, tables):
        gate = GatePredicate()
        # The gate holds the first operator (scan) past the deadline;
        # the boundary check before the next operator cuts the query.
        plan = Join(
            Scan(tables["serve_orders"], gate),
            Scan(tables["serve_items"]),
            algorithm="HJ",
        )
        service = QueryService(tables, workers=1, max_inflight=1)
        try:
            ticket = service.submit(QueryRequest(plan=plan, timeout=0.05))
            assert gate.entered.wait(timeout=30)
            time.sleep(0.1)  # let the deadline lapse while the scan is held
            gate.event.set()
            outcome = ticket.outcome()
            assert not outcome.ok
            assert isinstance(outcome.error, QueryTimeoutError)
            assert outcome.error.where == "running"
        finally:
            gate.event.set()
            service.close()

    def test_failed_query_reports_error(self, tables):
        bad = Join(
            Scan(tables["serve_orders"]),
            Scan(tables["serve_items"]),
            algorithm="NO-SUCH",
        )
        with QueryService(tables, workers=1) as service:
            outcome = service.submit(bad).outcome()
            assert not outcome.ok
            with pytest.raises(Exception):
                service.submit(bad).result()
        assert outcome.error is not None

    def test_registered_table_lookup(self, tables):
        with QueryService(tables, workers=1) as service:
            assert service.table("serve_orders").name == "serve_orders"
            with pytest.raises(ValidationError):
                service.table("nope")


class TestRunContextReuse:
    """S1: reruns must not re-derive statistics or re-resolve executors."""

    def _auto_join(self, tables):
        return Join(Scan(tables["serve_orders"]), Scan(tables["serve_items"]))

    def test_join_stats_derived_once_across_reruns(self, tables, monkeypatch):
        calls = {"n": 0}
        real = executor_module.table_stats

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "table_stats", counting)
        physical = compile_plan(self._auto_join(tables))
        context = RunContext()
        physical.run(Cluster(NUM_NODES), context=context)
        physical.run(Cluster(NUM_NODES), context=context)
        assert calls["n"] == 1

    def test_epoch_bump_forces_restat(self, tables, monkeypatch):
        calls = {"n": 0}
        real = executor_module.table_stats

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "table_stats", counting)
        physical = compile_plan(self._auto_join(tables))
        context = RunContext()
        physical.run(Cluster(NUM_NODES), context=context)
        bump_stats_epoch("serve_orders")
        physical.run(Cluster(NUM_NODES), context=context)
        assert calls["n"] == 2

    def test_warm_executor_used_and_restored(self, tables):
        with WarmExecutorPool(workers=2) as pool:
            cluster = Cluster(NUM_NODES)
            original = cluster.executor
            context = RunContext(executor=pool.lease())
            physical = compile_plan(self._auto_join(tables))
            physical.run(cluster, context=context)
            assert cluster.executor is original
            assert pool.stats()["dispatches"] > 0


class TestOperatorImmutability:
    """S2: compiled plans carry no per-run mutable operator state."""

    def test_operator_dicts_unchanged_by_run(self, tables):
        physical = compile_plan(
            Join(Scan(tables["serve_orders"]), Scan(tables["serve_items"]))
        )
        before = [dict(op.__dict__) for op in physical.operators]
        physical.run(Cluster(NUM_NODES))
        after = [dict(op.__dict__) for op in physical.operators]
        assert before == after

    def test_one_compiled_plan_serves_concurrent_runs(self, tables):
        physical = compile_plan(_join_plan(tables))
        solo = physical.run(Cluster(NUM_NODES))
        results = []
        errors = []

        def run():
            try:
                results.append(physical.run(Cluster(NUM_NODES)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(r.output_rows == solo.output_rows for r in results)
        assert all(r.network_bytes == solo.network_bytes for r in results)


class TestServeBenchHelpers:
    def test_query_mix_is_cacheable(self, tables):
        mix = serve_query_mix(tables)
        assert len(mix) >= 8
        fingerprints = [plan.fingerprint() for plan in mix]
        assert len(set(fingerprints)) == len(fingerprints)
        # Rebuilt plans fingerprint identically (cache keys are stable).
        again = [plan.fingerprint() for plan in serve_query_mix(tables)]
        assert fingerprints == again
