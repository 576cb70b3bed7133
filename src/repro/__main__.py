"""Command-line entry point: reproduce paper experiments.

Usage::

    python -m repro list                 # show registered experiments
    python -m repro fig3                 # run one experiment
    python -m repro fig4 bars=1          # render as ASCII stacked bars
    python -m repro all                  # run everything (slow)
    python -m repro bench-smoke          # tiny perf gate -> BENCH_joins.json
    python -m repro bench-scaling        # 1->N worker scaling curve
    python -m repro bench-skew           # skew ablation: 4TJ vs sharded 4TJ
    python -m repro serve-bench          # concurrent query-service throughput
    python -m repro lint                 # REP static analysis over src/repro
    python -m repro lint --dataflow      # + whole-package REP007-REP010 pass
    python -m repro lint src tests format=json
    python -m repro lint --dataflow --format sarif --no-cache
    python -m repro chaos --seed 3       # fault-injection matrix, one seed
    python -m repro chaos seeds=0,1,2 workers=1,4

Options after the experiment id are forwarded as ``key=value`` pairs,
e.g. ``python -m repro fig3 scaled_tuples=50000``; any other trailing
argument is an error (exit code 2).  The special ``workers=N`` option
sets the default worker count for phase execution (equivalent to the
``REPRO_WORKERS`` environment variable).

``lint`` instead treats bare arguments as files/directories to scan
(default ``src/repro``) and accepts ``--dataflow``, ``--format
text|json|sarif``, ``--baseline FILE``, ``--write-baseline FILE``, and
``--no-cache`` (each also spellable as ``key=value``).
"""

from __future__ import annotations

import sys

from .experiments import EXPERIMENTS, render, render_bars, run_experiment

#: Every non-experiment subcommand with its one-line description, in
#: help order.  Experiment ids (``python -m repro list``) are accepted
#: as commands too; anything else exits 2 with this table.
SUBCOMMANDS: dict[str, str] = {
    "list": "show every registered experiment id",
    "all": "run every registered experiment (slow)",
    "<experiment-id>": "run one experiment (e.g. fig3; add bars=1 for ASCII bars)",
    "bench-smoke": "tiny-scale perf + chaos gate, writes BENCH_joins.json",
    "bench-scaling": "1->N worker scaling curve, merged into BENCH_joins.json",
    "bench-skew": "4TJ vs sharded 4TJ on a hot-key workload, merged into BENCH_joins.json",
    "serve-bench": "concurrent query-service throughput vs one-at-a-time baseline",
    "lint": (
        "REP static analysis (paths..., --dataflow, --format text|json|sarif, "
        "--baseline FILE, --write-baseline FILE, --no-cache)"
    ),
    "chaos": "seeded fault-injection matrix (seed=N, seeds=0,1, workers=1,4)",
    "help": "show this help",
}


def _render_subcommands() -> str:
    width = max(len(name) for name in SUBCOMMANDS)
    return "\n".join(
        f"  {name:<{width}}  {description}"
        for name, description in SUBCOMMANDS.items()
    )


def _parse_value(raw: str):
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


#: Lint flags that take no value.
_LINT_FLAGS = {"--dataflow": "dataflow", "--no-cache": "no-cache"}
#: Lint flags whose value is the next argument (``--format sarif``).
_LINT_VALUED = {
    "--format": "format",
    "--baseline": "baseline",
    "--write-baseline": "write-baseline",
    "--cache-dir": "cache-dir",
}


def _run_lint(args: list[str]) -> int:
    """The ``lint`` subcommand: REP static analysis.

    Bare arguments are files/directories to scan (default
    ``src/repro``).  ``--dataflow`` adds the whole-package REP007–REP010
    pass; ``--format text|json|sarif`` selects the reporter;
    ``--baseline FILE`` absorbs grandfathered findings;
    ``--write-baseline FILE`` records the current findings and exits 0;
    ``--no-cache`` disables the ``.repro-lint-cache/`` result cache
    (``--cache-dir DIR`` relocates it).  ``key=value`` spellings of the
    same options are accepted.  Exit codes: 0 clean, 1 findings, 2
    malformed invocation.
    """
    from .analysis import DEFAULT_TARGET, lint_paths, write_baseline
    from .errors import AnalysisError

    paths: list[str] = []
    options: dict[str, str] = {}
    booleans: set[str] = set()
    position = 0
    while position < len(args):
        arg = args[position]
        if arg in _LINT_FLAGS:
            booleans.add(_LINT_FLAGS[arg])
            position += 1
        elif arg in _LINT_VALUED and position + 1 < len(args):
            options[_LINT_VALUED[arg]] = args[position + 1]
            position += 2
        elif arg.startswith("--") and "=" in arg:
            key, value = arg[2:].split("=", 1)
            options[key] = value
            position += 1
        elif "=" in arg and not arg.startswith("-"):
            key, value = arg.split("=", 1)
            options[key] = value
            position += 1
        elif arg.startswith("-"):
            print(f"error: unknown lint option {arg!r}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
            position += 1

    truthy = ("1", "true", "yes", "on")
    fmt = options.pop("format", "text")
    baseline = options.pop("baseline", None)
    write_to = options.pop("write-baseline", options.pop("write_baseline", None))
    cache_dir = options.pop("cache-dir", options.pop("cache_dir", ".repro-lint-cache"))
    dataflow = "dataflow" in booleans or str(
        options.pop("dataflow", "")
    ).lower() in truthy
    no_cache = "no-cache" in booleans or str(
        options.pop("no-cache", options.pop("no_cache", ""))
    ).lower() in truthy
    if options:
        print(f"error: unknown lint option(s): {sorted(options)}", file=sys.stderr)
        return 2
    if fmt not in ("text", "json", "sarif"):
        print(
            f"error: format must be 'text', 'json', or 'sarif', got {fmt!r}",
            file=sys.stderr,
        )
        return 2
    try:
        report = lint_paths(
            paths or [DEFAULT_TARGET],
            dataflow=dataflow,
            baseline=baseline,
            cache_dir=None if no_cache else cache_dir,
        )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if write_to is not None:
        write_baseline(report, write_to)
        print(f"wrote {len(report.diagnostics)} finding(s) to baseline {write_to}")
        return 0
    if fmt == "json":
        print(report.render_json())
    elif fmt == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _run_chaos(args: list[str]) -> int:
    """The ``chaos`` subcommand: seeded fault-injection matrix.

    Accepts ``seed=N`` / ``--seed N`` (one seed), ``seeds=0,1,2``,
    ``nodes=N``, and ``workers=1,4`` (the worker counts of the matrix).
    Exits 1 when any run violates the row-identical-output or
    goodput-ledger invariant, 2 on malformed options.
    """
    from .faults.chaos import DEFAULT_SEEDS, run_chaos

    normalized: list[str] = []
    position = 0
    while position < len(args):
        arg = args[position]
        if arg.startswith("--") and "=" not in arg and position + 1 < len(args):
            normalized.append(f"{arg[2:]}={args[position + 1]}")
            position += 2
            continue
        normalized.append(arg.lstrip("-"))
        position += 1
    malformed = [arg for arg in normalized if "=" not in arg]
    if malformed:
        print(
            f"error: unrecognized chaos argument {malformed[0]!r}; "
            "use seed=N, seeds=0,1,2, nodes=N, workers=1,4",
            file=sys.stderr,
        )
        return 2
    options = dict(arg.split("=", 1) for arg in normalized)
    try:
        if "seed" in options:
            seeds: tuple[int, ...] = (int(options.pop("seed")),)
        elif "seeds" in options:
            seeds = tuple(int(seed) for seed in options.pop("seeds").split(","))
        else:
            seeds = DEFAULT_SEEDS
        num_nodes = int(options.pop("nodes", 4))
        worker_counts = tuple(
            int(workers) for workers in str(options.pop("workers", "1")).split(",")
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if options:
        print(f"error: unknown chaos option(s): {sorted(options)}", file=sys.stderr)
        return 2
    report = run_chaos(seeds=seeds, num_nodes=num_nodes, worker_counts=worker_counts)
    print(
        f"chaos: {report['runs']} runs over seeds {report['seeds']} "
        f"x workers {report['worker_counts']} "
        f"({len(report['algorithms'])} algorithms, {num_nodes} nodes)"
    )
    faults = report["faults"]
    print(
        f"faults injected: {faults.get('faults_injected', 0):.0f} "
        f"(crashes: {faults.get('crashes', 0):.0f}, "
        f"restarts: {faults.get('restarts', 0):.0f}); "
        f"retransmitted: {report['retransmit_bytes']:.0f} bytes"
    )
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print("ok" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        print("Subcommands:\n" + _render_subcommands())
        return 0
    command = argv[0]
    if command == "lint":
        return _run_lint(argv[1:])
    if command == "chaos":
        return _run_chaos(argv[1:])
    if command not in SUBCOMMANDS and command not in EXPERIMENTS:
        print(
            f"error: unknown subcommand {command!r}; available subcommands:\n"
            + _render_subcommands(),
            file=sys.stderr,
        )
        return 2
    malformed = [arg for arg in argv[1:] if "=" not in arg]
    if malformed:
        print(
            f"error: unrecognized argument {malformed[0]!r}; "
            "options must be key=value pairs",
            file=sys.stderr,
        )
        return 2
    kwargs = dict(pair.split("=", 1) for pair in argv[1:])
    kwargs = {key: _parse_value(value) for key, value in kwargs.items()}
    if "workers" in kwargs:
        from .errors import ValidationError
        from .parallel import set_default_workers

        try:
            set_default_workers(kwargs.pop("workers"))
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if command == "bench-smoke":
        from .perf import bench_smoke

        return bench_smoke(**kwargs)
    if command == "bench-scaling":
        from .perf import bench_scaling_report

        return bench_scaling_report(**kwargs)
    if command == "bench-skew":
        from .perf import bench_skew_report

        return bench_skew_report(**kwargs)
    if command == "serve-bench":
        from .serve import bench_serve_report

        return bench_serve_report(**kwargs)
    if command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if command == "all":
        for experiment_id in EXPERIMENTS:
            print(render(run_experiment(experiment_id)))
            print()
        return 0
    as_bars = bool(kwargs.pop("bars", False))
    try:
        result = run_experiment(command, **kwargs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(render_bars(result) if as_bars else render(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
