"""Whole-package dataflow analysis: symbol tables, call graph, contexts.

The per-file rules (REP001–REP006) reason about one AST at a time; the
concurrency invariants introduced by the kernel thread pool (PR 7) and
the concurrent query service (PR 8) are invisible at that granularity —
whether a mutation races depends on *which thread reaches it*, and that
is a property of the call graph, not of any single file.  This module
builds the package-level picture the REP007–REP010 rules need:

:class:`PackageIndex` / :func:`build_package_index`
    Parses every scanned file once and records, per module: imports
    (absolute and relative, resolved to package-qualified names),
    module-level globals classified by kind (``mutable`` container,
    ``lock``, thread-``local``, plain value), classes with their bases,
    lock-holding attributes and methods, and every function — including
    methods and nested closures — under a stable qualified name such as
    ``repro.serve.service.QueryService._drive``.

Call graph
    Each function gets a resolved callee set.  Resolution handles bare
    names (enclosing-closure scope, module scope, ``from`` imports,
    class constructors → ``__init__``), ``self.method`` /``cls.method``
    (walking package-local base classes), module-qualified attribute
    chains, ``ClassName.method``, and monkey-patch edges
    (``Cls.attr = replacement`` routes callers of ``Cls.attr`` to the
    replacement, which is how the sanitizer's patched ``Network.send``
    stays visible).  Unresolvable method calls fall back to a limited
    class-hierarchy approximation: a call ``x.m(...)`` links to every
    package method named ``m`` unless ``m`` is a common builtin-protocol
    name (``get``, ``append``, ``close``, ...) or the candidate set is
    implausibly large.  The approximation over-links rather than
    under-links — reachability-based rules stay sound against the
    contexts they model.

Task contexts
    :meth:`PackageIndex.task_contexts` (computed by
    :mod:`repro.analysis.contexts`) infers which functions can run off
    the coordinator thread: callables handed to ``run_phase`` /
    ``run_fused_phases`` / ``pipelined_phases`` (phase tasks), to
    ``run_chunks`` / ``.map()`` / ``.submit()`` (kernel subtasks), and
    to ``threading.Thread(target=...)`` (service driver threads), plus
    everything reachable from them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import AnalysisError
from .engine import FileContext

__all__ = [
    "GlobalVar",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "PackageIndex",
    "build_package_index",
    "attr_chain",
    "own_nodes",
    "resolve_name",
    "resolve_class",
    "resolve_method",
]

#: ``threading`` factories whose product synchronizes access.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Constructors (and literals, handled separately) of shared-mutable state.
_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "bytearray",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
}

#: Method names excluded from the class-hierarchy call approximation:
#: builtin container/string/file/queue/ndarray protocol names would link
#: nearly every call site to unrelated classes.
_CHA_SKIP = frozenset(
    {
        "get",
        "items",
        "keys",
        "values",
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "setdefault",
        "extend",
        "remove",
        "discard",
        "clear",
        "copy",
        "sort",
        "insert",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "rstrip",
        "lstrip",
        "format",
        "encode",
        "decode",
        "startswith",
        "endswith",
        "lower",
        "upper",
        "replace",
        "read",
        "write",
        "close",
        "open",
        "put",
        "get_nowait",
        "put_nowait",
        "acquire",
        "release",
        "wait",
        "notify",
        "notify_all",
        "set",
        "is_set",
        "locked",
        "astype",
        "reshape",
        "ravel",
        "flatten",
        "tolist",
        "item",
        "fill",
        "view",
        "take",
        "repeat",
        "searchsorted",
        "argsort",
        "nonzero",
        "cumsum",
        "sum",
        "min",
        "max",
        "mean",
        "any",
        "all",
        "tobytes",
    }
)

#: Candidate bound for the class-hierarchy approximation; a method name
#: shared by more classes than this is treated as unresolvable noise.
_CHA_LIMIT = 16


def attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body, excluding nested function/class bodies.

    Lambdas stay with their enclosing function; ``def``s become their
    own :class:`FunctionInfo` and are analyzed separately.
    """
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        yield from own_nodes(child)


def _classify_value(value: ast.AST | None) -> str:
    """Kind of a module-level binding: mutable / lock / tls / other."""
    if value is None:
        return "other"
    if isinstance(
        value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return "mutable"
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if chain:
            tail = chain[-1]
            if tail in _LOCK_FACTORIES:
                return "lock"
            if tail == "local" and chain[:-1] in ([], ["threading"]):
                return "tls"
            if tail in _MUTABLE_FACTORIES:
                return "mutable"
    return "other"


def _is_lock_value(value: ast.AST | None) -> bool:
    """True for ``threading.Lock()``-family values, including dataclass
    ``field(default_factory=threading.Lock)`` declarations."""
    if _classify_value(value) == "lock":
        return True
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if chain and chain[-1] == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = attr_chain(kw.value)
                    if factory and factory[-1] in _LOCK_FACTORIES:
                        return True
    return False


@dataclass
class GlobalVar:
    """One module-level binding."""

    name: str
    lineno: int
    #: ``mutable`` | ``lock`` | ``tls`` | ``other``
    kind: str


@dataclass
class FunctionInfo:
    """One function, method, or nested closure in the package."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.AST
    #: Owning class name for methods, else None.
    cls: str | None = None
    #: Enclosing function qualname for nested defs, else None.
    parent: str | None = None
    #: Resolved callee qualnames (filled by the call-graph pass).
    callees: set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class: bases, methods, and its lock-holding attributes."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    #: method name -> function qualname
    methods: dict[str, str]
    #: ``self`` attributes assigned a lock (or a lock default_factory).
    lock_attrs: set[str]


@dataclass
class ModuleInfo:
    """Symbol table of one parsed module."""

    name: str
    path: str
    ctx: FileContext
    is_package: bool
    #: local alias -> absolute module name (``import x.y as z``).
    imports: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name) for ``from m import n``.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    #: class name -> class qualname
    classes: dict[str, str] = field(default_factory=dict)
    #: top-level function name -> function qualname
    functions: dict[str, str] = field(default_factory=dict)


class PackageIndex:
    """Symbol tables plus a call graph over one linted package."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Total resolved call edges (reported in the lint summary).
        self.edges = 0
        self._by_path: dict[str, FileContext] = {}
        self._methods_by_name: dict[str, list[str]] = {}
        self._contexts = None

    def context_for(self, path: str | Path) -> FileContext | None:
        """The FileContext a diagnostic at ``path`` anchors into."""
        return self._by_path.get(str(path))

    def class_of(self, info: FunctionInfo) -> ClassInfo | None:
        """The owning ClassInfo of a method, else None."""
        if info.cls is None:
            return None
        return self.classes.get(f"{info.module}.{info.cls}")

    def task_contexts(self):
        """The inferred task contexts (cached after the first call)."""
        if self._contexts is None:
            from .contexts import infer_task_contexts

            self._contexts = infer_task_contexts(self)
        return self._contexts

    def reachable_from(self, seeds: Iterable[str]) -> set[str]:
        """Every function reachable from ``seeds`` along call edges."""
        seen: set[str] = set()
        frontier = [qual for qual in seeds if qual in self.functions]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            frontier.extend(
                callee
                for callee in self.functions[qual].callees
                if callee not in seen
            )
        return seen


def _module_name(path: Path, roots: list[Path]) -> tuple[str, bool]:
    """Dotted module name for ``path`` relative to a scan root.

    The root directory's own name becomes the top package (scanning
    ``src/repro`` names modules ``repro.serve.service``), so relative
    imports resolve naturally.  Files outside every root fall back to
    their stem.
    """
    resolved = path.resolve()
    for root in sorted(roots, key=lambda r: len(r.parts), reverse=True):
        try:
            rel = resolved.relative_to(root)
        except ValueError:
            continue
        parts = [root.name, *rel.with_suffix("").parts]
        if parts[-1] == "__init__":
            return ".".join(parts[:-1]), True
        return ".".join(parts), False
    if path.stem == "__init__":
        return path.parent.name, True
    return path.stem, False


def _resolve_relative(
    module_name: str, is_package: bool, level: int, target: str | None
) -> str | None:
    """Absolute module named by a (possibly relative) ``from`` import."""
    if level == 0:
        return target
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[: len(parts) - drop]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


def _child_defs(root: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function definitions nested directly in ``root``'s own body."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.ClassDef):
            yield from _child_defs(child)


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """``self`` attribute names bound to locks anywhere in the class."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if not _is_lock_value(value):
            continue
        for target in targets:
            chain = attr_chain(target)
            if len(chain) == 2 and chain[0] == "self":
                attrs.add(chain[1])
            elif isinstance(target, ast.Name):
                attrs.add(target.id)
    return attrs


def _index_module(
    index: PackageIndex, name: str, is_package: bool, ctx: FileContext
) -> ModuleInfo:
    module = ModuleInfo(name=name, path=ctx.path, ctx=ctx, is_package=is_package)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(name, is_package, node.level, node.module)
            if base is None:
                continue
            for alias in node.names:
                module.from_imports[alias.asname or alias.name] = (base, alias.name)

    for stmt in ctx.tree.body:
        targets: list[ast.Name] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        kind = _classify_value(value)
        for target in targets:
            module.globals[target.id] = GlobalVar(
                name=target.id, lineno=stmt.lineno, kind=kind
            )

    def register_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
        parent: str | None,
        prefix: str,
    ) -> str:
        qual = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            module=name,
            path=ctx.path,
            node=node,
            cls=cls_name,
            parent=parent,
        )
        index.functions[qual] = info
        if cls_name is not None:
            index._methods_by_name.setdefault(node.name, []).append(qual)
        for child in _child_defs(node):
            register_function(child, cls_name, qual, qual)
        return qual

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = register_function(stmt, None, None, name)
        elif isinstance(stmt, ast.ClassDef):
            cls_qual = f"{name}.{stmt.name}"
            methods: dict[str, str] = {}
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = register_function(
                        item, stmt.name, None, cls_qual
                    )
            bases = tuple(
                base
                for base in (".".join(attr_chain(b)) for b in stmt.bases)
                if base
            )
            index.classes[cls_qual] = ClassInfo(
                qualname=cls_qual,
                name=stmt.name,
                module=name,
                node=stmt,
                bases=bases,
                methods=methods,
                lock_attrs=_lock_attrs(stmt),
            )
            module.classes[stmt.name] = cls_qual
    return module


def resolve_qualified(index: PackageIndex, qual: str) -> str | None:
    """A function qualname for ``qual``; classes resolve to __init__."""
    if qual in index.functions:
        return qual
    cls = index.classes.get(qual)
    if cls is not None:
        return cls.methods.get("__init__")
    return None


def resolve_class(
    index: PackageIndex, module: ModuleInfo, name: str
) -> ClassInfo | None:
    """Resolve a class name visible in ``module`` to its ClassInfo."""
    if name in module.classes:
        return index.classes.get(module.classes[name])
    if name in module.from_imports:
        base, original = module.from_imports[name]
        return index.classes.get(f"{base}.{original}")
    return None


def resolve_method(
    index: PackageIndex, cls: ClassInfo, name: str, _depth: int = 0
) -> str | None:
    """Resolve a method by name on ``cls``, walking package-local bases."""
    if name in cls.methods:
        return cls.methods[name]
    if _depth > 5:
        return None
    module = index.modules.get(cls.module)
    if module is None:
        return None
    for base in cls.bases:
        base_cls = resolve_class(index, module, base.split(".")[-1])
        if base_cls is not None and base_cls is not cls:
            found = resolve_method(index, base_cls, name, _depth + 1)
            if found is not None:
                return found
    return None


def resolve_name(
    index: PackageIndex, module: ModuleInfo, info: FunctionInfo | None, name: str
) -> str | None:
    """Resolve a bare name in a function's scope to a function qualname.

    Lookup order: nested closures of the enclosing function chain,
    module-level functions, module classes (→ ``__init__``), then
    ``from`` imports into other indexed modules.
    """
    scope = info
    while scope is not None:
        candidate = f"{scope.qualname}.{name}"
        if candidate in index.functions:
            return candidate
        scope = index.functions.get(scope.parent) if scope.parent else None
    if name in module.functions:
        return module.functions[name]
    if name in module.classes:
        return index.classes[module.classes[name]].methods.get("__init__")
    if name in module.from_imports:
        base, original = module.from_imports[name]
        return resolve_qualified(index, f"{base}.{original}")
    return None


def _resolve_call(
    index: PackageIndex, module: ModuleInfo, info: FunctionInfo, call: ast.Call
) -> set[str]:
    """Callee qualnames of one call expression."""
    func = call.func
    targets: set[str] = set()
    if isinstance(func, ast.Name):
        found = resolve_name(index, module, info, func.id)
        if found is not None:
            targets.add(found)
        return targets
    if not isinstance(func, ast.Attribute):
        return targets
    chain = attr_chain(func)
    if chain:
        head, attr = chain[0], chain[-1]
        if head in ("self", "cls") and info.cls is not None and len(chain) == 2:
            cls = index.class_of(info)
            if cls is not None:
                found = resolve_method(index, cls, attr)
                if found is not None:
                    targets.add(found)
                    return targets
        if len(chain) >= 2:
            prefix = module.imports.get(head)
            if prefix is not None:
                found = resolve_qualified(index, ".".join([prefix, *chain[1:]]))
                if found is not None:
                    targets.add(found)
                    return targets
            if len(chain) == 2:
                cls = resolve_class(index, module, head)
                if cls is not None:
                    found = resolve_method(index, cls, attr)
                    if found is not None:
                        targets.add(found)
                        return targets
    attr = func.attr
    if attr in _CHA_SKIP or attr.startswith("__"):
        return targets
    candidates = index._methods_by_name.get(attr, ())
    if 0 < len(candidates) <= _CHA_LIMIT:
        targets.update(candidates)
    return targets


def _monkeypatch_edges(index: PackageIndex) -> None:
    """Route ``Cls.attr = replacement`` assignments into the call graph.

    Callers resolved to ``Cls.attr`` must also reach the replacement
    function, otherwise runtime-installed wrappers (the payload
    sanitizer's ``Network.send``) escape every reachability argument.
    """
    for module in index.modules.values():
        for node in ast.walk(module.ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            chain = attr_chain(target)
            if len(chain) != 2 or not isinstance(target, ast.Attribute):
                continue
            cls = resolve_class(index, module, chain[0])
            if cls is None:
                continue
            patched = cls.methods.get(chain[1])
            if patched is None:
                continue
            replacement = None
            if isinstance(node.value, ast.Name):
                replacement = resolve_name(index, module, None, node.value.id)
            if replacement is not None:
                index.functions[patched].callees.add(replacement)


def _build_call_graph(index: PackageIndex) -> None:
    for info in index.functions.values():
        module = index.modules[info.module]
        for node in own_nodes(info.node):
            if isinstance(node, ast.Call):
                info.callees.update(_resolve_call(index, module, info, node))
        info.callees.discard(info.qualname)
    _monkeypatch_edges(index)
    index.edges = sum(len(info.callees) for info in index.functions.values())


def build_package_index(
    files: Iterable[str | Path], roots: Iterable[str | Path] = ()
) -> PackageIndex:
    """Parse ``files`` into a :class:`PackageIndex` with a call graph.

    ``roots`` are the directories the lint was invoked with; each file's
    module name is derived from its position under the containing root.
    """
    index = PackageIndex()
    root_paths = [Path(r).resolve() for r in roots if Path(r).is_dir()]
    for file_path in sorted(Path(f) for f in files):
        try:
            source = file_path.read_text()
        except OSError as exc:
            raise AnalysisError(f"cannot read {file_path}: {exc}") from exc
        ctx = FileContext(file_path, source)
        name, is_package = _module_name(file_path, root_paths)
        index.modules[name] = _index_module(index, name, is_package, ctx)
        index._by_path[ctx.path] = ctx
    _build_call_graph(index)
    return index
