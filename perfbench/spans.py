"""Outside-in layer tracing: spans installed as hooks on the program's modules.

Each hook wraps one callable of the program and records a span for its
layer: wall time, the part of it covered by nested spans, and a call
count.  A layer's self time is the sum over its spans of duration minus
child-span time, so the self times of all layers plus the root span's own
remainder add up exactly to the root span's wall time when spans nest in
one thread.

Hooks are installed on every loaded ``repro`` module that holds the
callable, because several are imported by name (``from .tracking import
run_tracking_phase``) and a patch on the defining module alone would miss
those call sites.  Methods are patched on their class.  A target that no
longer exists is reported as absent instead of failing, so the benchmark
keeps running when a later change deletes a hooked callable.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: Name of the span that wraps one whole operation (a join run or one
#: served query); its own remainder is reported as the ``unattributed``
#: layer.
ROOT = "unattributed"


def _tracking_counts(table) -> dict[str, float]:
    return {"entries": table.num_entries, "keys": table.num_keys}


def _schedule_counts(schedules) -> dict[str, float]:
    return {"keys": schedules.num_keys}


def _shard_counts(schedules) -> dict[str, float]:
    if not schedules.has_shards:
        return {}
    return {"sharded_keys": int(schedules.sharded.sum())}


def _output_counts(partition) -> dict[str, float]:
    return {"output_rows": partition.num_rows}


@dataclass(frozen=True)
class Hook:
    """One hooked callable: ``module:attr`` or ``module:Class.method``."""

    layer: str
    target: str
    #: Maps the callable's return value to counts added to its layer.
    counts: Callable | None = None
    #: For phase dispatch: the task callable (first positional argument)
    #: is wrapped so its body is charged to the caller's layer, leaving
    #: the dispatch layer with its own overhead only.
    charge_tasks_to_caller: bool = False


#: Join-path layers.  Prefixes ending in ``*`` hook every method of the
#: class whose name starts with the prefix.
JOIN_HOOKS: tuple[Hook, ...] = (
    Hook("core.tracking", "repro.core.tracking:run_tracking_phase", _tracking_counts),
    Hook("core.schedule", "repro.core.schedule:generate_schedules", _schedule_counts),
    Hook("core.schedule", "repro.core.schedule:both_direction_plans"),
    Hook("core.schedule", "repro.core.skew:plan_shards"),
    Hook("core.schedule", "repro.core.skew:attach_shards", _shard_counts),
    Hook("exchange.selective", "repro.exchange.selective:SelectiveBroadcast.run"),
    Hook("exchange.locations", "repro.exchange.locations:LocationExchange.run"),
    Hook("exchange.gather", "repro.exchange.gather:Gather.run"),
    Hook("exchange.gather", "repro.exchange.gather:absorb_received"),
    Hook("exchange.gather", "repro.exchange.gather:drain_category"),
    Hook("exchange.shuffle", "repro.exchange.shuffle:Shuffle.scatter"),
    Hook("exchange.shuffle", "repro.exchange.shuffle:Shuffle.run"),
    Hook("exchange.shuffle", "repro.exchange.shuffle:KeyShuffle.scatter"),
    Hook("exchange.shuffle", "repro.exchange.shuffle:KeyShuffle.run"),
    Hook("exchange.migrate", "repro.exchange.migrate:Migrate.run"),
    Hook("exchange.migrate", "repro.exchange.migrate:ShardedMigrate.run"),
    Hook("joins.local", "repro.joins.local:local_join", _output_counts),
    Hook("cluster.network", "repro.cluster.network:Network.send"),
    Hook("cluster.network", "repro.cluster.network:Network.send_batches"),
    Hook("cluster.network", "repro.cluster.network:Network.deliver"),
    Hook("cluster.network", "repro.cluster.network:Network.requeue"),
    Hook("timing.profile", "repro.timing.profile:ExecutionProfile.add_cpu*"),
    Hook("timing.profile", "repro.timing.profile:ExecutionProfile.add_net*"),
    Hook("timing.profile", "repro.timing.profile:ExecutionProfile.add_local"),
    Hook(
        "cluster.run_phase",
        "repro.cluster.cluster:Cluster.run_phase",
        charge_tasks_to_caller=True,
    ),
)

#: Query-service layers.
SERVE_HOOKS: tuple[Hook, ...] = (
    Hook("query.compile", "repro.query.executor:compile_plan"),
    Hook("query.stats", "repro.query.executor:table_stats"),
    Hook("query.stats", "repro.costmodel.optimizer:rank_algorithms"),
)

#: The service runs each query inside this method: it is the root span of
#: a served query, so its remainder is the query's ``unattributed`` time.
SERVICE_ROOT: tuple[Hook, ...] = (
    Hook(ROOT, "repro.serve.service:QueryService._execute"),
)

#: Every layer a traced run reports, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(h.layer for h in JOIN_HOOKS + SERVE_HOOKS))


@dataclass
class Tracer:
    """Per-layer self time, span time, calls and counts of recorded spans."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    wall_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(
        self, layer: str, self_seconds: float, seconds: float, counted: bool, counts
    ) -> None:
        with self._lock:
            self.self_s[layer] += self_seconds
            if counted:  # a task charged to its caller is no span of its own
                self.wall_s[layer] += seconds
                self.calls[layer] += 1
        self.count(layer, counts)

    def count(self, layer: str, counts: dict[str, float]) -> None:
        """Add ``counts`` to the layer's counts."""
        with self._lock:
            for name, value in counts.items():
                self.counts[f"{layer}.{name}"] += value

    def merge(self, other: "Tracer") -> None:
        """Add ``other``'s totals into this tracer."""
        with self._lock:
            for layer, value in other.self_s.items():
                self.self_s[layer] += value
            for layer, value in other.wall_s.items():
                self.wall_s[layer] += value
            for layer, value in other.calls.items():
                self.calls[layer] += value
            for name, value in other.counts.items():
                self.counts[name] += value


class HookSet:
    """Hooks installed on the program's modules while the ``with`` block runs.

    Spans are kept on per-thread stacks and recorded into :attr:`tracer`;
    set it to a fresh :class:`Tracer` before each traced operation.  On
    exit every patched attribute is restored.
    """

    def __init__(self, hooks: tuple[Hook, ...]):
        self.hooks = hooks
        self.tracer = Tracer()
        self.absent: list[str] = []
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, layer: str, fn, args, kwargs, counted: bool = True, counts=None):
        """Call ``fn`` inside a span of ``layer``."""
        tracer = self.tracer
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
        tracer.record(
            layer, duration - frame[1], duration, counted, counts(result) if counts else {}
        )
        return result

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span; returns ``(result, wall_seconds)``."""
        start = time.perf_counter()
        result = self.span(ROOT, fn, args, kwargs)
        return result, time.perf_counter() - start

    def _wrap(self, hook: Hook, original):
        layer, counts, span = hook.layer, hook.counts, self.span
        if hook.charge_tasks_to_caller:

            @functools.wraps(original)
            def hooked(*args, **kwargs):
                stack = self._stack()
                if stack and len(args) >= 2 and callable(args[1]):
                    caller, task = stack[-1][0], args[1]

                    def charged(*a, **k):
                        return span(caller, task, a, k, counted=False)

                    args = (args[0], charged) + args[2:]
                return span(layer, original, args, kwargs)

        else:

            @functools.wraps(original)
            def hooked(*args, **kwargs):
                return span(layer, original, args, kwargs, counts=counts)

        return hooked

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "HookSet":
        for hook in self.hooks:
            module_name, _, path = hook.target.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(hook.target)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                names = self._method_names(owner, attr)
                if not names:
                    self.absent.append(hook.target)
                for name in names:
                    self._patch(owner, name, self._wrap(hook, vars(owner)[name]))
            else:
                original = getattr(module, attr, None)
                if not inspect.isfunction(original):
                    self.absent.append(hook.target)
                    continue
                self._patch_everywhere(original, self._wrap(hook, original))
        return self

    @staticmethod
    def _method_names(owner, attr: str) -> list[str]:
        if owner is None:
            return []
        if attr.endswith("*"):
            prefix = attr[:-1]
            return sorted(
                n
                for n, v in vars(owner).items()
                if n.startswith(prefix) and inspect.isfunction(v)
            )
        return [attr] if inspect.isfunction(vars(owner).get(attr)) else []

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Patch every loaded ``repro`` module attribute bound to ``original``."""
        for module_name, module in list(sys.modules.items()):
            in_program = module_name == "repro" or module_name.startswith("repro.")
            if module is None or not in_program:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, replacement)

    def __exit__(self, *exc_info) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
