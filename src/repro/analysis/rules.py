"""The REP rule catalogue: determinism and aliasing invariants as AST checks.

Every rule here encodes a contract the runtime actually depends on (see
the module docstrings of :mod:`repro.cluster.network` and
:mod:`repro.parallel.executor`).  The checks are deliberately
conservative and purely syntactic: they reason about names and lexical
structure, not data flow across calls, so a clean report is a strong
hint rather than a proof — and a flagged line is either a real hazard
or a deliberate exception worth a visible ``# repro: noqa[CODE]``
waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import (
    DataflowRule,
    Diagnostic,
    FileContext,
    Rule,
    register_dataflow_rule,
    register_rule,
)

__all__ = ["DEFAULT_TARGET", "RULES_VERSION"]

#: The tree `python -m repro lint` scans when no paths are given.
DEFAULT_TARGET = "src/repro"

#: Bumped whenever rule logic changes; part of the lint-cache key so a
#: stale `.repro-lint-cache/` can never mask a new finding.
RULES_VERSION = "1"

#: time-module attributes that read wall or monotonic clocks.
_CLOCK_ATTRS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}

#: numpy.random constructors that are deterministic *when seeded*.
_SEEDABLE_RNG = {"default_rng", "Generator", "SeedSequence", "RandomState",
                 "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}

#: Builtin exception names library code must not raise directly.
_BANNED_RAISES = {
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "LookupError",
    "ArithmeticError",
}

#: ndarray methods that mutate the array in place.
_INPLACE_METHODS = {
    "fill",
    "sort",
    "partition",
    "put",
    "resize",
    "setfield",
    "setflags",
    "itemset",
    "byteswap",
}


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level module names bound by plain ``import`` statements."""
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
    return modules


def _from_imports(tree: ast.Module, module: str) -> set[str]:
    """Names bound by ``from <module> import ...`` statements."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


@register_rule
class UnseededRandomness(Rule):
    """REP001: every random stream must be constructed from an explicit seed.

    A reproduction is only a reproduction if two runs agree; the repo's
    convention (see ``repro.storage.placement`` and the workload
    generators) is that randomness always flows from
    ``np.random.default_rng(seed)`` with a caller-supplied seed.  This
    rule flags ``default_rng()``/``Generator``-family constructors
    called without arguments, any use of numpy's implicit global stream
    (``np.random.seed``, ``np.random.randint``, ...), and the stdlib
    ``random`` module's global functions.
    """

    code = "REP001"
    summary = "unseeded or global-state randomness"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        stdlib_random = "random" in _imported_modules(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) >= 2 and chain[-2] == "random" and chain[0] in ("np", "numpy"):
                attr = chain[-1]
                if attr in _SEEDABLE_RNG:
                    if not node.args and not node.keywords:
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"np.random.{attr}() without an explicit seed; "
                            "pass a seed so runs are reproducible",
                        )
                else:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.random.{attr} uses numpy's global random state; "
                        "use np.random.default_rng(seed) instead",
                    )
            elif stdlib_random and len(chain) == 2 and chain[0] == "random":
                attr = chain[1]
                if attr in ("Random", "SystemRandom"):
                    if attr == "SystemRandom" or (not node.args and not node.keywords):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"random.{attr} without a deterministic seed",
                        )
                else:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"random.{attr} draws from the global stdlib stream; "
                        "use a seeded generator",
                    )


@register_rule
class WallClockAndSetOrder(Rule):
    """REP002: no wall-clock reads or set-iteration feeding network state.

    Timing belongs to ``repro/timing`` (the calibrated model) and
    ``repro/perf`` (the benchmark harness); a clock read anywhere else
    leaks nondeterminism into values the engine promises are
    bit-identical across runs.  Likewise, python ``set`` iteration order
    is seeded per process, so a ``for`` loop over a set that sends
    messages or touches a ledger produces run-dependent inbox order.
    """

    code = "REP002"
    summary = "wall-clock read or set-iteration order feeding network state"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        exempt = ctx.in_subtree("repro/timing/", "repro/perf/")
        clock_names = _from_imports(ctx.tree, "time") & _CLOCK_ATTRS
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and not exempt:
                chain = _attr_chain(node.func)
                if (
                    len(chain) == 2
                    and chain[0] == "time"
                    and chain[1] in _CLOCK_ATTRS
                ) or (len(chain) == 1 and chain[0] in clock_names):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"clock read {'.'.join(chain)}() outside repro/timing "
                        "and repro/perf; timing must flow through the "
                        "calibrated model",
                    )
                elif len(chain) >= 2 and chain[-1] in ("now", "utcnow", "today") and (
                    "datetime" in chain or "date" in chain
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"wall-clock read {'.'.join(chain)}() in library code",
                    )
            if isinstance(node, ast.For) and self._iterates_set(node.iter):
                if self._feeds_network(node.body):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "iterating a set to send messages or record ledger "
                        "state; set order is per-process — sort first",
                    )

    @staticmethod
    def _iterates_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set"
        )

    @staticmethod
    def _feeds_network(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    chain = _attr_chain(node.func)
                    if chain and chain[-1] in ("send", "send_batches", "record"):
                        return True
                if isinstance(node, ast.Attribute) and node.attr == "ledger":
                    return True
                if isinstance(node, ast.Name) and node.id == "ledger":
                    return True
        return False


@register_rule
class SendLaneBypass(Rule):
    """REP003: sends must reach the network where lane staging can see them.

    During an open phase, determinism rests on every task's sends being
    staged in its bound :class:`~repro.cluster.network.SendLane` and
    committed at the barrier in task order.  Two syntactic shapes defeat
    that: (a) touching the network's private spool (``_inboxes``,
    ``_phase_lanes``) from outside the network module, and (b) a closure
    that calls ``.send``/``.send_batches`` inside an enclosing function
    that never routes work through ``run_phase`` (or binds a lane
    itself) — if such a closure ever runs on a pool thread while a phase
    is open, its sends commit immediately and the barrier no longer
    orders them.
    """

    code = "REP003"
    summary = "network send can bypass SendLane staging"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        is_network_module = ctx.in_subtree("repro/cluster/network.py")
        if not is_network_module:
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("_inboxes", "_phase_lanes")
                    # self._phase_lanes is a class managing its own lanes
                    # (ExecutionProfile), not a bypass of the network's.
                    and not (
                        isinstance(node.value, ast.Name) and node.value.id == "self"
                    )
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct access to Network.{node.attr} bypasses "
                        "SendLane staging and the phase barrier",
                    )
        yield from self._check_closures(ctx, ctx.tree, enclosing=[])

    def _check_closures(
        self, ctx: FileContext, node: ast.AST, enclosing: list[ast.AST]
    ) -> Iterator[Diagnostic]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if len(enclosing) >= 1:  # nested def: a phase-task closure
                    if not any(self._stages_lanes(outer) for outer in enclosing):
                        for send in self._direct_sends(child):
                            yield ctx.diagnostic(
                                send,
                                self.code,
                                "closure sends without the enclosing function "
                                "running it via run_phase/bind_lane; if this "
                                "runs during an open phase the send skips "
                                "SendLane staging",
                            )
                yield from self._check_closures(ctx, child, enclosing + [child])
            else:
                yield from self._check_closures(ctx, child, enclosing)

    @staticmethod
    def _stages_lanes(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in (
                "run_phase",
                "bind_lane",
            ):
                return True
            if isinstance(node, ast.Name) and node.id in ("run_phase", "bind_lane"):
                return True
        return False

    @staticmethod
    def _direct_sends(func: ast.AST) -> list[ast.Call]:
        sends = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain and chain[-1] in ("send", "send_batches"):
                    sends.append(node)
        return sends


@register_rule
class BareBuiltinRaise(Rule):
    """REP004: library errors derive from the ``ReproError`` hierarchy.

    Raising bare builtins (``ValueError``, ``KeyError``, ...) makes
    library failures indistinguishable from programming errors at call
    sites.  ``repro.errors`` provides dual-inheritance classes
    (:class:`~repro.errors.ValidationError`,
    :class:`~repro.errors.UnknownKeyError`) so converting a raise never
    breaks callers that catch the builtin.  ``NotImplementedError`` and
    ``AssertionError`` stay legal (abstract hooks, internal checks).
    """

    code = "REP004"
    summary = "bare builtin exception raised in library code"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BANNED_RAISES:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"raise {name} in library code; use the ReproError "
                    "hierarchy (e.g. ValidationError, UnknownKeyError)",
                )


@register_rule
class WriteAfterSend(Rule):
    """REP005: a payload handed to a send is frozen until rebound.

    The network transports payloads zero-copy; mutating an array after
    passing it to ``send``/``send_batches`` rewrites a message already
    in flight (the copy-on-conflict rule of
    :mod:`repro.cluster.network`).  This is a conservative
    intra-function escape check: within one function body, a *name*
    passed as a payload must not be mutated on a later line (subscript
    store, augmented assignment, in-place ndarray method, or ``out=``
    target) unless the name is first rebound to a fresh object.  The
    runtime sanitizer (:mod:`repro.analysis.sanitizer`) covers the
    flow-sensitive cases this rule cannot see.
    """

    code = "REP005"
    summary = "numpy array mutated after being passed to a send"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Diagnostic]:
        events: list[tuple[int, int, str, str, ast.AST]] = []

        for node in ast.walk(func):
            pos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if isinstance(node, ast.Call):
                payload = self._payload_name(node)
                if payload is not None:
                    events.append((*pos, "send", payload, node))
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name):
                        events.append((*pos, "mutate", kw.value.id, node))
                chain = _attr_chain(node.func)
                if (
                    len(chain) >= 2
                    and chain[-1] in _INPLACE_METHODS
                ):
                    events.append((*pos, "mutate", chain[0], node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in self._store_names(target):
                        events.append((*pos, "rebind", name, node))
                    for name in self._subscript_names(target):
                        events.append((*pos, "mutate", name, node))
            elif isinstance(node, ast.AugAssign):
                for name in self._store_names(node.target):
                    events.append((*pos, "mutate", name, node))
                for name in self._subscript_names(node.target):
                    events.append((*pos, "mutate", name, node))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in self._store_names(node.target):
                    events.append((*pos, "rebind", name, node))

        events.sort(key=lambda e: (e[0], e[1]))
        sent: dict[str, int] = {}
        for line, _col, kind, name, node in events:
            if kind == "send":
                sent[name] = line
            elif kind == "rebind":
                sent.pop(name, None)
            elif kind == "mutate" and name in sent:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"{name!r} is mutated after being passed to a send on "
                    f"line {sent[name]}; the payload is in flight zero-copy "
                    "— copy before sending or send a fresh array",
                )

    @staticmethod
    def _payload_name(call: ast.Call) -> str | None:
        chain = _attr_chain(call.func)
        if not chain:
            return None
        arg: ast.AST | None = None
        if chain[-1] == "send":
            for kw in call.keywords:
                if kw.arg == "payload":
                    arg = kw.value
            if arg is None and len(call.args) >= 5:
                arg = call.args[4]
        elif chain[-1] == "send_batches":
            for kw in call.keywords:
                if kw.arg == "batches":
                    arg = kw.value
            if arg is None and len(call.args) >= 3:
                arg = call.args[2]
        if isinstance(arg, ast.Name):
            return arg.id
        return None

    @staticmethod
    def _store_names(target: ast.AST) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names = []
            for element in target.elts:
                names.extend(WriteAfterSend._store_names(element))
            return names
        return []

    @staticmethod
    def _subscript_names(target: ast.AST) -> list[str]:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            return [target.value.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names = []
            for element in target.elts:
                names.extend(WriteAfterSend._subscript_names(element))
            return names
        return []


@register_rule
class SwallowedException(Rule):
    """REP006: broad exception handlers must re-raise (or narrow).

    Fault tolerance lives on error signals: a dropped message, a dead
    worker, or an exhausted retry budget surfaces as a typed exception
    that recovery code catches *specifically*.  A bare ``except:`` or a
    blanket ``except Exception``/``except BaseException`` whose body
    never re-raises silently converts those signals into wrong answers
    — exactly the failure mode a chaos suite cannot distinguish from
    success.  This rule flags such handlers; legitimate firewalls
    (e.g. a CLI's top-level reporter) either catch ``ReproError`` or
    carry a visible ``# repro: noqa[REP006]`` waiver.
    """

    code = "REP006"
    summary = "broad exception handler swallows the error"

    _BROAD = {"Exception", "BaseException"}

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(node.type)
            if label is None:
                continue
            if any(isinstance(inner, ast.Raise) for stmt in node.body
                   for inner in ast.walk(stmt)):
                continue
            yield ctx.diagnostic(
                node,
                self.code,
                f"{label} without a re-raise swallows the error; catch the "
                "specific exception (ReproError subclasses) or re-raise",
            )

    @classmethod
    def _broad_label(cls, annotation: ast.AST | None) -> str | None:
        """The offending handler's label, or None when it is narrow."""
        if annotation is None:
            return "bare 'except:'"
        names = []
        if isinstance(annotation, ast.Tuple):
            names = [getattr(el, "id", None) for el in annotation.elts]
        elif isinstance(annotation, ast.Name):
            names = [annotation.id]
        broad = sorted(set(names) & cls._BROAD)
        if broad:
            return f"'except {broad[0]}'"
        return None


# ---------------------------------------------------------------------------
# Whole-package dataflow rules (REP007–REP010).
#
# These run over the PackageIndex built by repro.analysis.dataflow: they
# see the call graph and the inferred task contexts, so "reachable from
# a phase task" is a real property here, not a per-file guess.  Imports
# are function-local to keep module import order acyclic (engine imports
# this module to populate the registries; dataflow imports engine).
# ---------------------------------------------------------------------------


def _function_items(index) -> list[tuple[str, object]]:
    """(qualname, FunctionInfo) pairs in deterministic order."""
    return sorted(index.functions.items())


@register_dataflow_rule
class UnsynchronizedGlobalMutation(DataflowRule):
    """REP007: module globals mutated from task context need a lock.

    A phase task, kernel subtask, or service driver thread runs
    concurrently with its siblings; a mutation of module-level mutable
    state (dict/list/set globals, or any ``global``-declared rebind or
    augmented assign) from such a function is a data race unless every
    access happens under a lock.  Thread-local state
    (``threading.local()``) and lock objects themselves are exempt, as
    is any mutation lexically inside a ``with <lock>:`` block.
    """

    code = "REP007"
    summary = "module global mutated from task context without a lock"

    def check_package(self, index) -> Iterator[Diagnostic]:
        from .contexts import (
            declared_globals,
            iter_mutations,
            local_names,
            lock_held_map,
        )

        contexts = index.task_contexts()
        for qual in sorted(contexts.task):
            info = index.functions[qual]
            module = index.modules[info.module]
            declared = declared_globals(info)
            locals_ = local_names(info)
            held = None
            for mutation in iter_mutations(info):
                head = mutation.chain[0]
                if head in ("self", "cls"):
                    continue
                var = module.globals.get(head)
                if var is None or var.kind in ("lock", "tls"):
                    continue
                if mutation.kind in ("assign", "augassign"):
                    if len(mutation.chain) != 1 or head not in declared:
                        continue
                elif mutation.kind in ("setitem", "delitem", "method"):
                    if var.kind != "mutable":
                        continue
                    if head in locals_ and head not in declared:
                        continue
                else:
                    continue
                if held is None:
                    held = lock_held_map(index, info)
                if held.get(id(mutation.node)):
                    continue
                kinds = "/".join(contexts.kinds_of(qual)) or "task"
                yield module.ctx.diagnostic(
                    mutation.node,
                    self.code,
                    f"{qual} runs in {kinds} context and mutates module "
                    f"global {head!r} without holding a lock; guard the "
                    "access or make the state thread-local",
                )


@register_dataflow_rule
class ScratchKeyNamespace(DataflowRule):
    """REP008: ``ExecutionContext.scratch`` keys must be namespaced.

    Since the serve layer runs many queries over shared compiled
    operators, per-run state lives on ``ctx.scratch`` — a dict shared by
    *every operator in the plan*.  A bare literal key (``"build"``)
    silently collides the moment two operators pick the same word; the
    convention is a namespaced literal (``"join:build"``) or a dynamic
    key carrying the operator identity (``("join", self.index)``,
    ``ctx.state(self.index)``).  This rule flags non-namespaced string
    literals and any fully-literal key used by more than one class.
    """

    code = "REP008"
    summary = "non-namespaced or colliding ExecutionContext.scratch key"

    def check_package(self, index) -> Iterator[Diagnostic]:
        sites: list[tuple[object, object, str | None, object, object]] = []
        for name in sorted(index.modules):
            module = index.modules[name]
            for owner, key, anchor in self._scratch_keys(module.ctx.tree):
                sites.append((module, owner, *self._key_literal(key), anchor))

        owners_by_literal: dict[object, set[tuple[str, str | None]]] = {}
        for module, owner, kind, literal, _anchor in sites:
            if kind == "literal":
                owners_by_literal.setdefault(literal, set()).add(
                    (module.name, owner)
                )

        for module, owner, kind, literal, anchor in sites:
            if kind != "literal":
                continue
            if len(owners_by_literal[literal]) > 1:
                yield module.ctx.diagnostic(
                    anchor,
                    self.code,
                    f"scratch key {literal!r} is used by multiple operators "
                    "(" + ", ".join(
                        sorted(
                            f"{mod}.{cls}" if cls else mod
                            for mod, cls in owners_by_literal[literal]
                        )
                    )
                    + "); shared scratch keys collide across a plan",
                )
            elif isinstance(literal, str) and ":" not in literal:
                yield module.ctx.diagnostic(
                    anchor,
                    self.code,
                    f"scratch key {literal!r} is not namespaced; use "
                    "'<operator>:<name>', a (name, self.index) tuple, or "
                    "ctx.state(self.index)",
                )
            elif not isinstance(literal, (str, tuple)):
                yield module.ctx.diagnostic(
                    anchor,
                    self.code,
                    f"scratch key {literal!r} carries no operator identity; "
                    "key scratch entries on a namespaced literal or tuple",
                )

    @staticmethod
    def _scratch_keys(tree: ast.Module):
        """Yield (owning class or None, key expr, anchor node)."""

        def visit(node: ast.AST, owner: str | None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, child.name)
                    continue
                if isinstance(child, ast.Subscript):
                    chain = _attr_chain(child.value)
                    if chain and chain[-1] == "scratch":
                        yield owner, child.slice, child
                elif isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    if child.func.attr in ("get", "setdefault", "pop"):
                        chain = _attr_chain(child.func.value)
                        if chain and chain[-1] == "scratch" and child.args:
                            yield owner, child.args[0], child
                yield from visit(child, owner)

        yield from visit(tree, None)

    @staticmethod
    def _key_literal(key: ast.AST) -> tuple[str, object]:
        """("literal", value) for fully-constant keys, else ("dynamic", None)."""
        if isinstance(key, ast.Constant):
            return "literal", key.value
        if isinstance(key, ast.Tuple) and all(
            isinstance(element, ast.Constant) for element in key.elts
        ):
            return "literal", tuple(element.value for element in key.elts)
        return "dynamic", None


@register_dataflow_rule
class LockAsymmetry(DataflowRule):
    """REP009: state guarded by a lock anywhere must be guarded everywhere.

    In a class that owns a lock (a ``self._lock``-style attribute), two
    access shapes defeat the guard: mutating a container attribute
    (``self._entries[k] = v``, ``self.leases += 1``) outside any
    ``with``-lock block, and *reading* an attribute outside the lock
    when its writers hold it — the read can observe a torn or stale
    snapshot (the warm-pool ``stats()`` bug).  ``__init__`` is exempt:
    the object is not yet published.
    """

    code = "REP009"
    summary = "cache/pool structure accessed outside its owning lock"

    def check_package(self, index) -> Iterator[Diagnostic]:
        from .contexts import iter_mutations, lock_held_map

        for cls_qual in sorted(index.classes):
            cls = index.classes[cls_qual]
            if not cls.lock_attrs:
                continue
            module = index.modules[cls.module]
            methods = {
                method: index.functions[qual]
                for method, qual in sorted(cls.methods.items())
                if qual in index.functions
            }
            container_attrs = self._container_attrs(cls)

            guarded: set[str] = set()
            mutations = {}
            held_maps = {}
            for method, info in methods.items():
                held_maps[method] = lock_held_map(index, info)
                sites = [
                    mutation
                    for mutation in iter_mutations(info)
                    if len(mutation.chain) >= 2 and mutation.chain[0] == "self"
                ]
                mutations[method] = sites
                if method != "__init__":
                    for mutation in sites:
                        if held_maps[method].get(id(mutation.node)):
                            guarded.add(mutation.chain[1])
            guarded -= cls.lock_attrs

            for method, info in methods.items():
                if method == "__init__":
                    continue
                held = held_maps[method]
                flagged: set[tuple[str, int]] = set()
                for mutation in mutations[method]:
                    attr = mutation.chain[1]
                    if attr not in container_attrs and attr not in guarded:
                        continue
                    if held.get(id(mutation.node)):
                        continue
                    line = getattr(mutation.node, "lineno", 0)
                    if (attr, line) in flagged:
                        continue
                    flagged.add((attr, line))
                    yield module.ctx.diagnostic(
                        mutation.node,
                        self.code,
                        f"{cls.name}.{method} mutates self.{attr} outside "
                        f"the lock that guards it elsewhere in {cls.name}; "
                        "take the owning lock around the mutation",
                    )
                for node, attr in self._self_reads(info):
                    if attr not in guarded or held.get(id(node)):
                        continue
                    line = getattr(node, "lineno", 0)
                    if (attr, line) in flagged:
                        continue
                    flagged.add((attr, line))
                    yield module.ctx.diagnostic(
                        node,
                        self.code,
                        f"{cls.name}.{method} reads self.{attr} outside the "
                        f"lock its writers hold; the value can be torn or "
                        "stale — snapshot it under the lock",
                    )

    @staticmethod
    def _container_attrs(cls) -> set[str]:
        """``self`` attributes assigned a mutable container in the class."""
        from .dataflow import _classify_value

        attrs: set[str] = set()
        for node in ast.walk(cls.node):
            if not isinstance(node, ast.Assign):
                continue
            if _classify_value(node.value) != "mutable":
                continue
            for target in node.targets:
                chain = _attr_chain(target)
                if len(chain) == 2 and chain[0] == "self":
                    attrs.add(chain[1])
        return attrs

    @staticmethod
    def _self_reads(info):
        """(node, attr) for every ``self.<attr>`` load in the method."""
        from .contexts import own_nodes

        for node in own_nodes(info.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield node, node.attr


@register_dataflow_rule
class DriverBlockingCall(DataflowRule):
    """REP010: driver paths must not block without a timeout.

    ``QueryService`` promises per-query deadlines, enforced at operator
    boundaries — a promise an unbounded ``join()``, ``get()``,
    ``wait()``, ``acquire()``, or ``time.sleep`` on the driver path can
    outlast arbitrarily.  Calls that pass a timeout (or any argument,
    for ``join``/``get``/``wait``) are fine; the driver's own top-level
    idle wait (the seed function) is exempt — blocking on the admission
    queue *between* queries is the designed behavior.
    """

    code = "REP010"
    summary = "unbounded blocking call on a QueryService driver path"
    severity = "warning"

    _BLOCKING = {"join", "get", "wait", "acquire"}

    def check_package(self, index) -> Iterator[Diagnostic]:
        contexts = index.task_contexts()
        for qual in sorted(contexts.driver - contexts.driver_seeds):
            info = index.functions[qual]
            module = index.modules[info.module]
            sleep_names = {
                local
                for local, (mod, original) in module.from_imports.items()
                if mod == "time" and original == "sleep"
            }
            from .contexts import own_nodes

            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(node, sleep_names)
                if label is not None:
                    yield module.ctx.diagnostic(
                        node,
                        self.code,
                        f"{qual} runs on a QueryService driver thread; "
                        f"unbounded {label} ignores the per-query deadline "
                        "— pass a timeout derived from the deadline",
                    )

    @classmethod
    def _blocking_label(
        cls, call: ast.Call, sleep_names: set[str]
    ) -> str | None:
        chain = _attr_chain(call.func)
        if not chain:
            return None
        tail = chain[-1]
        dotted = ".".join(chain)
        if tail == "sleep" and (
            (len(chain) >= 2 and chain[-2] == "time")
            or (len(chain) == 1 and chain[0] in sleep_names)
        ):
            return f"{dotted}()"
        kwargs = {kw.arg for kw in call.keywords}
        if "timeout" in kwargs:
            return None
        if call.args:
            return None
        if tail in cls._BLOCKING and tail != "acquire":
            return f"{dotted}()"
        if tail == "acquire" and "blocking" not in kwargs:
            return f"{dotted}()"
        return None
