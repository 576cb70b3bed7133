"""Determinism, aliasing, and phase-safety analysis for the reproduction.

The parallel engine (PR 3) promises bit-identical ledgers, inbox order,
profiles, and outputs for any worker count; the kernel pool (PR 7) and
the concurrent query service (PR 8) add the stronger promise that those
bytes stay identical *under concurrency*.  This package enforces both
mechanically, in three complementary layers:

:mod:`repro.analysis.engine`
    A two-kind rule engine: per-file AST rules plus whole-package
    dataflow rules, with path:line diagnostics, statement-span
    ``# repro: noqa[CODE]`` suppression, a baseline mechanism for
    grandfathered findings, an on-disk lint cache, and text/JSON/SARIF
    reporters.

:mod:`repro.analysis.rules`
    The catalogue.  Per-file rules:

    ========  ==========================================================
    REP001    no unseeded randomness under ``src/repro/``
    REP002    no wall-clock reads outside ``repro/timing``/``repro/perf``
              and no set-iteration feeding sends or ledgers
    REP003    no network sends that can bypass ``SendLane`` staging
    REP004    no bare builtin exceptions in library code (use the
              :class:`~repro.errors.ReproError` hierarchy)
    REP005    no mutation of a numpy array after it was passed to a send
    REP006    no broad exception handler that swallows the error
    ========  ==========================================================

    Whole-package dataflow rules (over the call graph and inferred task
    contexts built by :mod:`repro.analysis.dataflow` /
    :mod:`repro.analysis.contexts`):

    ========  ==========================================================
    REP007    no unsynchronized mutation of module globals from task
              context (phase tasks, kernel subtasks, driver threads)
    REP008    no non-namespaced or colliding ``ExecutionContext.scratch``
              keys across operators
    REP009    no cache/pool structure access outside its owning lock
    REP010    no unbounded blocking calls on QueryService driver paths
    ========  ==========================================================

:mod:`repro.analysis.sanitizer`
    The runtime half: payload arrays handed to a staged send are frozen
    read-only until the phase barrier commits (REP005's dynamic
    counterpart), and registered shared objects record accessing-thread
    sets plus lock coverage, raising :class:`~repro.errors.RaceError`
    on a cross-thread conflict with no common lock (REP007/REP009's
    dynamic counterpart).

Run the static pass with ``python -m repro lint --dataflow`` or
``make lint``.
"""

from __future__ import annotations

from .engine import (
    DataflowRule,
    Diagnostic,
    FileContext,
    LintCache,
    LintReport,
    Rule,
    all_dataflow_rules,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    register_dataflow_rule,
    register_rule,
    write_baseline,
)
from .rules import DEFAULT_TARGET, RULES_VERSION
from .sanitizer import (
    RaceTracker,
    race_tracker,
    sanitized,
    sanitizer_disable,
    sanitizer_enable,
    sanitizer_enabled,
    shared_key,
    track_shared,
)

__all__ = [
    "DataflowRule",
    "Diagnostic",
    "FileContext",
    "LintCache",
    "LintReport",
    "Rule",
    "all_dataflow_rules",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_dataflow_rule",
    "register_rule",
    "write_baseline",
    "DEFAULT_TARGET",
    "RULES_VERSION",
    "RaceTracker",
    "race_tracker",
    "sanitized",
    "sanitizer_enable",
    "sanitizer_disable",
    "sanitizer_enabled",
    "shared_key",
    "track_shared",
]
