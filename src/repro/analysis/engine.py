"""AST-walking rule engine: registry, diagnostics, suppression, reporters.

The engine is deliberately small and project-specific.  A rule is a
class with a ``code`` (``REPnnn``), a one-line ``summary``, and a
``check`` method that walks one file's AST and yields
:class:`Diagnostic` objects.  :func:`lint_paths` runs every registered
rule over a file tree, drops diagnostics suppressed by
``# repro: noqa[CODE]`` comments, and returns a :class:`LintReport`
that renders as text (``path:line: CODE message``), JSON, or SARIF.

Two rule kinds share the engine:

:class:`Rule`
    Per-file checks (REP001–REP006): one AST, no knowledge of the rest
    of the package.

:class:`DataflowRule`
    Whole-package checks (REP007–REP010): run once against a
    :class:`~repro.analysis.dataflow.PackageIndex` (symbol tables, call
    graph, task contexts) built over every scanned file, enabled with
    ``lint_paths(..., dataflow=True)`` / ``python -m repro lint
    --dataflow``.

Suppression syntax, on any line of the flagged statement (including a
decorator line or the trailing line of a multi-line call)::

    destinations = set(nodes)  # repro: noqa[REP002] order normalized below
    # repro: noqa[REP001,REP005]   -- several codes
    # repro: noqa                  -- blanket (all codes); use sparingly

Suppressions are counted in the report so a creeping pile of waivers
stays visible.  Pre-existing findings can also be *baselined*
(``lint_paths(..., baseline="lint-baseline.json")``): matched findings
are counted separately and do not gate, so a new rule can land before
every legacy violation is fixed while still failing on regressions.
"""

from __future__ import annotations

import abc
import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ..errors import AnalysisError

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "DataflowRule",
    "LintReport",
    "LintCache",
    "register_rule",
    "register_dataflow_rule",
    "all_rules",
    "all_dataflow_rules",
    "load_baseline",
    "write_baseline",
    "lint_source",
    "lint_file",
    "lint_paths",
]

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]*)\])?")


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violation anchored to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (used by the lint cache)."""
        return cls(
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            code=payload["code"],
            message=payload["message"],
        )


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: str | Path, source: str):
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=self.path)
        except SyntaxError as exc:
            raise AnalysisError(f"{self.path}: cannot parse: {exc}") from exc
        # Normalized with forward slashes so rules can match subtrees
        # (e.g. "repro/timing/") on any platform.
        self.posix_path = Path(self.path).as_posix()
        self._spans: dict[int, tuple[int, int]] | None = None

    def in_subtree(self, *fragments: str) -> bool:
        """True if this file lives under any of the given path fragments."""
        return any(fragment in self.posix_path for fragment in fragments)

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        """Build a diagnostic anchored at ``node``."""
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )

    def _statement_spans(self) -> dict[int, tuple[int, int]]:
        """Line -> (first, last) line of its innermost enclosing statement.

        A compound statement (``def``, ``for``, ``with``, ...) spans only
        its *header* — decorator lines through the line before its first
        body statement — so a noqa inside a function body never blankets
        sibling lines.  Simple statements span every physical line they
        occupy, which is what lets a trailing-line noqa suppress a
        diagnostic anchored at the first line of a multi-line call.
        """
        if self._spans is None:
            spans: dict[int, tuple[int, int]] = {}

            def visit(node: ast.AST) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        start = child.lineno
                        decorators = getattr(child, "decorator_list", None) or []
                        if decorators:
                            start = min(start, min(d.lineno for d in decorators))
                        end = getattr(child, "end_lineno", None) or child.lineno
                        inner: list[ast.AST] = []
                        for name in ("body", "orelse", "finalbody", "handlers"):
                            inner.extend(getattr(child, name, None) or [])
                        if inner:
                            first = min(getattr(s, "lineno", end) for s in inner)
                            end = max(start, min(end, first - 1))
                        for line in range(start, end + 1):
                            spans[line] = (start, end)
                    visit(child)

            visit(self.tree)
            self._spans = spans
        return self._spans

    def suppressed(self, diagnostic: Diagnostic) -> bool:
        """True if the flagged statement carries a matching noqa comment.

        Every line of the diagnostic's enclosing statement is checked,
        so ``# repro: noqa[CODE]`` on a decorator or on any line of a
        multi-line statement suppresses diagnostics anchored anywhere in
        that statement.
        """
        start, end = self._statement_spans().get(
            diagnostic.line, (diagnostic.line, diagnostic.line)
        )
        for line in range(max(start, 1), min(end, len(self.lines)) + 1):
            match = _NOQA.search(self.lines[line - 1])
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                return True  # blanket "# repro: noqa"
            allowed = {c.strip() for c in codes.split(",") if c.strip()}
            if diagnostic.code in allowed:
                return True
        return False


class Rule(abc.ABC):
    """One invariant, checked per file."""

    #: Stable diagnostic code, ``REPnnn``.
    code: str = ""
    #: One-line description shown in reports and the rule catalogue.
    summary: str = ""
    #: SARIF severity: ``error`` (default), ``warning``, or ``note``.
    severity: str = "error"

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield a diagnostic for every violation found in ``ctx``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code}: {self.summary}>"


class DataflowRule(abc.ABC):
    """One cross-module invariant, checked over a whole package at once.

    Dataflow rules see a :class:`~repro.analysis.dataflow.PackageIndex`
    — per-module symbol tables, the call graph, and the inferred task
    contexts — instead of a single file, so they can reason about state
    shared *across* function and module boundaries (module globals
    mutated from phase tasks, scratch-key collisions between operators,
    lock coverage of cache internals).  They run only when a lint is
    invoked with ``dataflow=True``.
    """

    #: Stable diagnostic code, ``REPnnn``.
    code: str = ""
    #: One-line description shown in reports and the rule catalogue.
    summary: str = ""
    #: SARIF severity: ``error`` (default), ``warning``, or ``note``.
    severity: str = "error"

    @abc.abstractmethod
    def check_package(self, index: Any) -> Iterator[Diagnostic]:
        """Yield a diagnostic for every violation found in the package."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataflowRule {self.code}: {self.summary}>"


_REGISTRY: dict[str, Rule] = {}
_DATAFLOW_REGISTRY: dict[str, DataflowRule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its code."""
    instance = cls()
    if not instance.code:
        raise AnalysisError(f"rule {cls.__name__} has no code")
    if instance.code in _REGISTRY or instance.code in _DATAFLOW_REGISTRY:
        raise AnalysisError(f"duplicate rule code {instance.code}")
    _REGISTRY[instance.code] = instance
    return cls


def register_dataflow_rule(cls: type[DataflowRule]) -> type[DataflowRule]:
    """Class decorator: instantiate and register a dataflow rule."""
    instance = cls()
    if not instance.code:
        raise AnalysisError(f"rule {cls.__name__} has no code")
    if instance.code in _REGISTRY or instance.code in _DATAFLOW_REGISTRY:
        raise AnalysisError(f"duplicate rule code {instance.code}")
    _DATAFLOW_REGISTRY[instance.code] = instance
    return cls


def all_rules() -> dict[str, Rule]:
    """The registered per-file rule catalogue, keyed by code."""
    from . import rules  # noqa: F401  -- importing registers the rule set

    return dict(_REGISTRY)


def all_dataflow_rules() -> dict[str, DataflowRule]:
    """The registered whole-package rule catalogue, keyed by code."""
    from . import rules  # noqa: F401  -- importing registers the rule set

    return dict(_DATAFLOW_REGISTRY)


def _severity_of(code: str) -> str:
    """SARIF severity for a rule code (``error`` when unknown)."""
    rule = all_rules().get(code) or all_dataflow_rules().get(code)
    return getattr(rule, "severity", "error")


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    diagnostics: list[Diagnostic]
    files_scanned: int
    suppressed: int
    #: Findings matched (and absorbed) by a baseline file.
    baselined: int = 0
    #: Analyzer statistics when the dataflow pass ran (else ``None``).
    dataflow: dict | None = None

    @property
    def clean(self) -> bool:
        """True when no unsuppressed, unbaselined diagnostics were found."""
        return not self.diagnostics

    def by_code(self) -> dict[str, int]:
        """Unsuppressed diagnostic counts per rule code."""
        counts: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """Compact machine-readable summary (the BENCH ``analysis`` section)."""
        payload = {
            "files_scanned": self.files_scanned,
            "diagnostics": len(self.diagnostics),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "by_code": self.by_code(),
            "rules": sorted(all_rules()),
            "clean": self.clean,
        }
        if self.dataflow is not None:
            payload["dataflow_rules"] = sorted(all_dataflow_rules())
            payload["dataflow"] = dict(self.dataflow)
        return payload

    def render_text(self) -> str:
        """Text report: one line per diagnostic plus a closing summary."""
        lines = [d.render() for d in sorted(self.diagnostics)]
        counts = ", ".join(f"{code}={n}" for code, n in self.by_code().items())
        lines.append(
            f"{len(self.diagnostics)} problem(s) in {self.files_scanned} file(s)"
            + (f" [{counts}]" if counts else "")
            + (f", {self.suppressed} suppressed" if self.suppressed else "")
            + (f", {self.baselined} baselined" if self.baselined else "")
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """JSON report: summary plus the full diagnostic list."""
        payload = dict(self.summary())
        payload["findings"] = [d.to_dict() for d in sorted(self.diagnostics)]
        return json.dumps(payload, indent=2)

    def render_sarif(self) -> str:
        """SARIF 2.1.0 report for GitHub code-scanning upload."""
        levels = {"error": "error", "warning": "warning", "note": "note"}
        catalogue: dict[str, Any] = {**all_rules(), **all_dataflow_rules()}
        rules_meta = [
            {
                "id": code,
                "shortDescription": {"text": rule.summary},
                "defaultConfiguration": {
                    "level": levels.get(rule.severity, "error")
                },
            }
            for code, rule in sorted(catalogue.items())
        ]
        results = [
            {
                "ruleId": d.code,
                "level": levels.get(_severity_of(d.code), "error"),
                "message": {"text": d.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": Path(d.path).as_posix()},
                            "region": {
                                "startLine": d.line,
                                "startColumn": d.col + 1,
                            },
                        }
                    }
                ],
            }
            for d in sorted(self.diagnostics)
        ]
        payload = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": (
                                "https://github.com/track-join/repro"
                            ),
                            "rules": rules_meta,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2)


def load_baseline(path: str | Path) -> dict[tuple[str, str, str], int]:
    """Load a baseline file into a finding multiset.

    The format is the one :func:`write_baseline` emits:
    ``{"version": 1, "findings": [{"path", "code", "message"}, ...]}``.
    Matching is a multiset over ``(posix path, code, message)`` — line
    numbers are deliberately excluded so unrelated edits above a
    baselined finding do not un-baseline it.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read baseline {path}: {exc}") from exc
    findings = payload.get("findings") if isinstance(payload, dict) else payload
    if not isinstance(findings, list):
        raise AnalysisError(f"baseline {path} has no findings list")
    counts: dict[tuple[str, str, str], int] = {}
    for item in findings:
        key = (
            Path(str(item.get("path", ""))).as_posix(),
            str(item.get("code", "")),
            str(item.get("message", "")),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_baseline(report: LintReport, path: str | Path) -> None:
    """Write the report's current findings as a baseline file."""
    payload = {
        "version": 1,
        "findings": [
            {
                "path": Path(d.path).as_posix(),
                "code": d.code,
                "message": d.message,
            }
            for d in sorted(report.diagnostics)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def lint_source(
    source: str, path: str | Path = "<string>", rules: Sequence[Rule] | None = None
) -> tuple[list[Diagnostic], int]:
    """Lint one source string; returns (diagnostics, suppressed count)."""
    ctx = FileContext(path, source)
    active = list(rules) if rules is not None else list(all_rules().values())
    kept: list[Diagnostic] = []
    suppressed = 0
    for rule in active:
        for diagnostic in rule.check(ctx):
            if ctx.suppressed(diagnostic):
                suppressed += 1
            else:
                kept.append(diagnostic)
    kept.sort()
    return kept, suppressed


def lint_file(
    path: str | Path, rules: Sequence[Rule] | None = None
) -> tuple[list[Diagnostic], int]:
    """Lint one file on disk; returns (diagnostics, suppressed count)."""
    file_path = Path(path)
    try:
        source = file_path.read_text()
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    return lint_source(source, file_path, rules)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            found.add(path)
        else:
            raise AnalysisError(f"lint target {entry} is not a python file or directory")
    return sorted(found)


class LintCache:
    """On-disk cache of per-file (and package-level) rule results.

    Entries are keyed on ``path | mtime_ns | size | rules-version`` so
    any edit, or any change to the rule catalogue
    (:data:`repro.analysis.rules.RULES_VERSION`), invalidates exactly
    the affected results.  ``save()`` rewrites the index with only the
    keys touched this run, so stale generations prune themselves.
    Caching is best-effort: a read-only tree lints fine, it just pays
    full price every time.
    """

    def __init__(self, root: str | Path = ".repro-lint-cache"):
        self.root = Path(root)
        self.index_path = self.root / "cache.json"
        try:
            entries = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            entries = {}
        self._entries: dict[str, Any] = entries if isinstance(entries, dict) else {}
        self._used: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def file_key(path: Path, version: str) -> str | None:
        """Cache key for one file, or None when it cannot be stat'd."""
        try:
            stat = path.stat()
        except OSError:
            return None
        return f"{path.as_posix()}|{stat.st_mtime_ns}|{stat.st_size}|{version}"

    def get(self, key: str) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._used[key] = entry
        return entry

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._used[key] = value

    def save(self) -> None:
        """Persist the entries touched this run (self-pruning)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.index_path.write_text(json.dumps(self._used))
        except OSError:
            pass


def _rules_version(active: Sequence[Rule]) -> str:
    """Cache-key component covering the rule catalogue in force."""
    from . import rules as catalogue

    codes = ",".join(sorted(rule.code for rule in active))
    flow_codes = ",".join(sorted(_DATAFLOW_REGISTRY))
    return f"{getattr(catalogue, 'RULES_VERSION', '0')}|{codes}|{flow_codes}"


def _run_dataflow(
    files: list[Path],
    roots: Iterable[str | Path],
    cache: LintCache | None,
    version: str,
) -> tuple[dict, list[Diagnostic], int]:
    """The whole-package pass: build the index, run every dataflow rule.

    Returns ``(stats, diagnostics, suppressed)``.  The result is cached
    under a digest of every scanned file's (path, mtime, size), so an
    unchanged tree skips both parsing and analysis.
    """
    from ..timing.clock import wall_clock
    from .dataflow import build_package_index

    start = wall_clock()
    key = None
    if cache is not None:
        digest = hashlib.sha256()
        for file_path in files:
            digest.update((LintCache.file_key(file_path, version) or "?").encode())
        key = f"dataflow|{digest.hexdigest()}"
        entry = cache.get(key)
        if entry is not None:
            stats = dict(entry["stats"])
            stats["wall_seconds"] = round(wall_clock() - start, 6)
            diagnostics = [Diagnostic.from_dict(d) for d in entry["diagnostics"]]
            return stats, diagnostics, entry["suppressed"]
    index = build_package_index(files, roots)
    diagnostics = []
    suppressed = 0
    for rule in all_dataflow_rules().values():
        for diagnostic in rule.check_package(index):
            ctx = index.context_for(diagnostic.path)
            if ctx is not None and ctx.suppressed(diagnostic):
                suppressed += 1
            else:
                diagnostics.append(diagnostic)
    diagnostics.sort()
    contexts = index.task_contexts()
    stats = {
        "modules": len(index.modules),
        "functions": len(index.functions),
        "call_edges": index.edges,
        "task_functions": len(contexts.task),
        "phase_functions": len(contexts.phase),
        "kernel_functions": len(contexts.kernel),
        "driver_functions": len(contexts.driver),
        "wall_seconds": round(wall_clock() - start, 6),
    }
    if cache is not None and key is not None:
        cache.put(
            key,
            {
                "stats": {k: v for k, v in stats.items() if k != "wall_seconds"},
                "diagnostics": [d.to_dict() for d in diagnostics],
                "suppressed": suppressed,
            },
        )
    return stats, diagnostics, suppressed


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    *,
    dataflow: bool = False,
    baseline: str | Path | dict | None = None,
    cache_dir: str | Path | None = None,
) -> LintReport:
    """Run the rule set over files and directory trees.

    ``dataflow=True`` additionally builds a
    :class:`~repro.analysis.dataflow.PackageIndex` over the scanned
    files and runs the whole-package REP007–REP010 rules.  ``baseline``
    names a JSON file (or a preloaded multiset from
    :func:`load_baseline`) whose findings are absorbed into
    ``report.baselined`` instead of gating.  ``cache_dir`` enables the
    on-disk :class:`LintCache` rooted there.
    """
    paths = list(paths)
    files = iter_python_files(paths)
    active = list(rules) if rules is not None else list(all_rules().values())
    version = _rules_version(active)
    cache = LintCache(cache_dir) if cache_dir is not None else None
    diagnostics: list[Diagnostic] = []
    suppressed = 0
    for file_path in files:
        key = LintCache.file_key(file_path, version) if cache is not None else None
        if cache is not None and key is not None:
            entry = cache.get(key)
            if entry is not None:
                diagnostics.extend(
                    Diagnostic.from_dict(d) for d in entry["diagnostics"]
                )
                suppressed += entry["suppressed"]
                continue
        found, skipped = lint_file(file_path, active)
        diagnostics.extend(found)
        suppressed += skipped
        if cache is not None and key is not None:
            cache.put(
                key,
                {
                    "diagnostics": [d.to_dict() for d in found],
                    "suppressed": skipped,
                },
            )
    dataflow_stats = None
    if dataflow:
        dataflow_stats, flow_diagnostics, flow_suppressed = _run_dataflow(
            files, paths, cache, version
        )
        diagnostics.extend(flow_diagnostics)
        suppressed += flow_suppressed
    if cache is not None:
        cache.save()
    baselined = 0
    if baseline is not None:
        allowance = (
            dict(baseline) if isinstance(baseline, dict) else load_baseline(baseline)
        )
        kept: list[Diagnostic] = []
        for diagnostic in sorted(diagnostics):
            key3 = (
                Path(diagnostic.path).as_posix(),
                diagnostic.code,
                diagnostic.message,
            )
            if allowance.get(key3, 0) > 0:
                allowance[key3] -= 1
                baselined += 1
            else:
                kept.append(diagnostic)
        diagnostics = kept
    diagnostics.sort()
    return LintReport(
        diagnostics=diagnostics,
        files_scanned=len(files),
        suppressed=suppressed,
        baselined=baselined,
        dataflow=dataflow_stats,
    )
