"""Concurrent query service: admission control over a warm worker pool.

:class:`QueryService` is the "millions of users" layer: many clients
submit logical plans against shared resident tables, and the service
multiplexes them over one :class:`~repro.serve.pool.WarmExecutorPool`
with a :class:`~repro.serve.cache.PlanCache` amortizing compilation and
statistics across repeated plan shapes.

Scheduling model
----------------
- **Admission**: at most ``max_queue`` queries may wait; a submit
  beyond that (or after ``close()``) is rejected with a typed
  :class:`~repro.errors.AdmissionError` — clean backpressure instead of
  unbounded queueing.
- **Fairness**: ``max_inflight`` driver threads pull from one priority
  queue ordered by ``(priority, admission sequence)`` — strict FIFO
  within a priority level, lower priority values first.
- **Deadlines**: a request's ``timeout`` starts at admission.  An
  expired query is failed with
  :class:`~repro.errors.QueryTimeoutError` without running; one that
  expires mid-run is cut at the next operator boundary.

Isolation
---------
Each query runs on its *own* :class:`~repro.cluster.cluster.Cluster`
(network fabric, ledger, inboxes) borrowing only the shared executor,
so its traffic ledger, execution profiles, and output are byte-identical
to the same query run solo — the per-task send-lane barrier discipline
already guarantees worker-count invariance, and nothing of a query's
network state is shared.  Resident tables are read-shared; their
partition caches are deterministic derived values, so concurrent reads
are safe.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field

from ..analysis.sanitizer import shared_key, track_shared
from ..cluster.cluster import Cluster
from ..errors import AdmissionError, QueryTimeoutError, ValidationError
from ..joins.base import JoinSpec
from ..query.executor import QueryResult, RunContext
from ..query.plan import PlanNode
from ..storage.table import DistributedTable
from ..timing.clock import wall_clock
from .cache import PlanCache
from .pool import WarmExecutorPool

__all__ = ["QueryRequest", "QueryOutcome", "QueryTicket", "QueryService"]


@dataclass(frozen=True)
class QueryRequest:
    """One client query: a logical plan plus scheduling parameters."""

    plan: PlanNode
    spec: JoinSpec | None = None
    #: Lower values run first; ties are FIFO in admission order.
    priority: int = 0
    #: Seconds from admission until the deadline (``None`` = no limit).
    timeout: float | None = None
    #: Caller label carried through to the outcome (diagnostics only).
    tag: str = ""
    #: Per-operator FaultExhaustedError retries (see PhysicalPlan.run).
    operator_retries: int = 0


@dataclass
class QueryOutcome:
    """Terminal state of one admitted query."""

    tag: str
    ok: bool
    result: QueryResult | None = None
    error: BaseException | None = None
    #: Whether the plan came from the cache (compilation skipped).
    cache_hit: bool = False
    fingerprint: str = ""
    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    total_seconds: float = 0.0


class QueryTicket:
    """Handle returned by :meth:`QueryService.submit`."""

    def __init__(self, tag: str):
        self.tag = tag
        self._done = threading.Event()
        self._outcome: QueryOutcome | None = None

    def _complete(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self._done.set()

    def done(self) -> bool:
        """True once the query reached a terminal state."""
        return self._done.is_set()

    def outcome(self, timeout: float | None = None) -> QueryOutcome:
        """Block until terminal and return the outcome.

        Raises :class:`~repro.errors.QueryTimeoutError` if the *wait*
        itself times out (the query may still complete later).
        """
        if not self._done.wait(timeout):
            raise QueryTimeoutError(
                f"query {self.tag!r} still pending after {timeout}s wait",
                timeout=timeout,
                where="waiting",
            )
        return self._outcome

    def result(self, timeout: float | None = None) -> QueryResult:
        """The query's :class:`QueryResult`; re-raises its failure."""
        outcome = self.outcome(timeout)
        if outcome.error is not None:
            raise outcome.error
        return outcome.result


@dataclass
class _ServiceCounters:
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    timed_out: int = 0
    inflight: int = 0
    max_inflight_seen: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class QueryService:
    """Admission-controlled concurrent execution of plans over one pool.

    Parameters
    ----------
    tables:
        Optional resident tables to register by name (convenience for
        :meth:`table`; plans reference table objects directly).
    workers:
        Warm pool worker count (see :class:`WarmExecutorPool`).  With
        one worker, queries run their phases inline on the driver
        threads; inter-query concurrency then comes from
        ``max_inflight`` alone.
    max_inflight:
        Driver-thread count — the bound on concurrently *executing*
        queries.
    max_queue:
        Bound on *waiting* queries; submits beyond it raise
        :class:`~repro.errors.AdmissionError`.
    cache_capacity:
        Plan-cache entry bound (LRU).
    fuse_rekey:
        Compile plans with Rekey-into-Join fusion.

    Use as a context manager, or call :meth:`close` to drain and stop
    the driver threads and release the pool.
    """

    def __init__(
        self,
        tables: dict[str, DistributedTable] | None = None,
        *,
        workers: int | None = None,
        max_inflight: int = 4,
        max_queue: int = 128,
        cache_capacity: int = 128,
        fuse_rekey: bool = False,
    ):
        if max_inflight < 1:
            raise ValidationError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 1:
            raise ValidationError(f"max_queue must be >= 1, got {max_queue}")
        self.tables = dict(tables or {})
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.fuse_rekey = fuse_rekey
        self.pool = WarmExecutorPool(workers)
        self.cache = PlanCache(cache_capacity)
        self._counters = _ServiceCounters()
        self._track = shared_key("serve.service.counters")
        self._sequence = itertools.count()
        self._queue: "queue.PriorityQueue[tuple]" = queue.PriorityQueue()
        self._closed = False
        self._drivers = [
            threading.Thread(
                target=self._drive, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(max_inflight)
        ]
        for driver in self._drivers:
            driver.start()

    # -- registration ----------------------------------------------------

    def register_table(self, table: DistributedTable) -> None:
        """Make a resident table addressable via :meth:`table`."""
        self.tables[table.name] = table

    def table(self, name: str) -> DistributedTable:
        """A registered resident table by name."""
        if name not in self.tables:
            raise ValidationError(
                f"no resident table {name!r}; registered: {sorted(self.tables)}"
            )
        return self.tables[name]

    # -- admission -------------------------------------------------------

    def submit(self, request: QueryRequest | PlanNode) -> QueryTicket:
        """Admit one query; returns a ticket, or raises on rejection.

        A bare :class:`~repro.query.plan.PlanNode` is wrapped in a
        default :class:`QueryRequest`.  Rejection
        (:class:`~repro.errors.AdmissionError`) happens when the wait
        queue is at ``max_queue`` or the service is closed; an admitted
        query always reaches a terminal outcome.
        """
        if isinstance(request, PlanNode):
            request = QueryRequest(plan=request)
        counters = self._counters
        with counters.lock:
            track_shared(self._track, write=True, locks=(counters.lock,))
            if self._closed:
                counters.rejected += 1
                raise AdmissionError(
                    "service is closed", queued=self._queue.qsize(), limit=None
                )
            queued = self._queue.qsize()
            if queued >= self.max_queue:
                counters.rejected += 1
                raise AdmissionError(
                    f"admission queue is full ({queued}/{self.max_queue} waiting)",
                    queued=queued,
                    limit=self.max_queue,
                )
            counters.admitted += 1
            sequence = next(self._sequence)
        ticket = QueryTicket(request.tag or f"q{sequence}")
        admitted_at = wall_clock()
        deadline = (
            admitted_at + request.timeout if request.timeout is not None else None
        )
        self._queue.put((request.priority, sequence, request, ticket, admitted_at, deadline))
        return ticket

    def submit_many(self, requests) -> list[QueryTicket]:
        """Admit several queries in order; all-or-nothing is *not*
        attempted — a mid-list rejection propagates after earlier
        admissions stand."""
        return [self.submit(request) for request in requests]

    # -- the drivers -----------------------------------------------------

    _STOP = object()

    def _drive(self) -> None:
        while True:
            item = self._queue.get()
            if item[2] is self._STOP:
                return
            _, _, request, ticket, admitted_at, deadline = item
            counters = self._counters
            with counters.lock:
                track_shared(
                    self._track, write=True, locks=(counters.lock,)
                )
                counters.inflight += 1
                counters.max_inflight_seen = max(
                    counters.max_inflight_seen, counters.inflight
                )
            try:
                outcome = self._execute(request, admitted_at, deadline)
            except BaseException as error:  # repro: noqa[REP006] driver must survive; error reaches the caller via the ticket
                outcome = QueryOutcome(tag=ticket.tag, ok=False, error=error)
            with counters.lock:
                track_shared(
                    self._track, write=True, locks=(counters.lock,)
                )
                counters.inflight -= 1
                if outcome.ok:
                    counters.completed += 1
                elif isinstance(outcome.error, QueryTimeoutError):
                    counters.timed_out += 1
                else:
                    counters.failed += 1
            outcome.tag = ticket.tag
            ticket._complete(outcome)

    def _execute(
        self, request: QueryRequest, admitted_at: float, deadline: float | None
    ) -> QueryOutcome:
        started = wall_clock()
        queue_seconds = started - admitted_at
        if deadline is not None and started > deadline:
            return QueryOutcome(
                tag=request.tag,
                ok=False,
                error=QueryTimeoutError(
                    f"deadline expired after {queue_seconds:.3f}s in the "
                    "admission queue",
                    elapsed=queue_seconds,
                    timeout=request.timeout,
                    where="queued",
                ),
                queue_seconds=queue_seconds,
                total_seconds=started - admitted_at,
            )
        entry, hit = self.cache.get_or_compile(
            request.plan, fuse_rekey=self.fuse_rekey
        )
        num_nodes = self._num_nodes(request.plan)
        cluster = Cluster(num_nodes, executor=self.pool.lease())
        context = RunContext(
            executor=cluster.executor,
            join_stats=entry.context.join_stats,
            deadline=deadline,
        )
        context.epoch_signature = entry.context.epoch_signature
        try:
            result = entry.physical.run(
                cluster,
                request.spec,
                operator_retries=request.operator_retries,
                context=context,
            )
        except Exception as error:  # repro: noqa[REP006] failure is this query's terminal outcome, not the service's
            finished = wall_clock()
            return QueryOutcome(
                tag=request.tag,
                ok=False,
                error=error,
                cache_hit=hit,
                fingerprint=entry.fingerprint,
                queue_seconds=queue_seconds,
                run_seconds=finished - started,
                total_seconds=finished - admitted_at,
            )
        # Persist the (possibly re-pinned) epoch signature so the next
        # run of this entry reuses the statistics without re-checking.
        entry.context.epoch_signature = context.epoch_signature
        finished = wall_clock()
        return QueryOutcome(
            tag=request.tag,
            ok=True,
            result=result,
            cache_hit=hit,
            fingerprint=entry.fingerprint,
            queue_seconds=queue_seconds,
            run_seconds=finished - started,
            total_seconds=finished - admitted_at,
        )

    def _num_nodes(self, plan: PlanNode) -> int:
        """Partition count shared by every table the plan scans."""
        counts: set[int] = set()
        stack = [plan]
        from ..query.plan import Aggregate, Join, Rekey, Scan

        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                counts.add(node.table.num_nodes)
            elif isinstance(node, Join):
                stack.extend((node.left, node.right))
            elif isinstance(node, (Rekey, Aggregate)):
                stack.append(node.child)
        if len(counts) != 1:
            raise ValidationError(
                f"plan scans tables with inconsistent partition counts: "
                f"{sorted(counts)}"
            )
        return counts.pop()

    # -- lifecycle and reporting ----------------------------------------

    def drain(self, tickets, timeout: float | None = None) -> list[QueryOutcome]:
        """Wait for every ticket; outcomes in submission order."""
        return [ticket.outcome(timeout) for ticket in tickets]

    def stats(self) -> dict:
        """Service, cache, and pool counters in one snapshot."""
        counters = self._counters
        with counters.lock:
            track_shared(
                self._track, write=False, locks=(counters.lock,)
            )
            service = {
                "admitted": counters.admitted,
                "rejected": counters.rejected,
                "completed": counters.completed,
                "failed": counters.failed,
                "timed_out": counters.timed_out,
                "inflight": counters.inflight,
                "max_inflight_seen": counters.max_inflight_seen,
                "queued": self._queue.qsize(),
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            }
        return {
            "service": service,
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
        }

    def close(self, wait: bool = True) -> None:
        """Stop admitting, let queued queries finish, release the pool."""
        with self._counters.lock:
            track_shared(
                self._track, write=True, locks=(self._counters.lock,)
            )
            if self._closed:
                return
            self._closed = True
        # Stop sentinels sort after every real priority, so queued
        # queries drain before the drivers exit.
        for _ in self._drivers:
            self._queue.put((float("inf"), next(self._sequence), self._STOP, None, 0.0, None))
        if wait:
            for driver in self._drivers:
                driver.join()
        self.cache.close()
        self.pool.shutdown()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
