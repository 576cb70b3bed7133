"""Benchmark entry point: one workload per run, each in its own process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniq-16n --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Before it, each workload prints a summary and its full record
(provenance, configuration, per-run detail) as one JSON line.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import WORKLOADS  # noqa: E402  (stdlib-only module)

#: Settings that would change how the program runs; cleared for the child.
CLEARED_ENV = (
    "REPRO_WORKERS",
    "REPRO_PIPELINE",
    "REPRO_KERNEL_WORKERS",
    "REPRO_KERNEL_CHUNK_ROWS",
)
#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 170


def git_head() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its parsed output."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        name,
        str(seed),
        repr(seconds),
        str(trace),
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    output = json.loads(lines[-1])
    output["record"].update(
        git_head=git_head(),
        env_cleared=list(CLEARED_ENV),
        env_was_set=sorted(k for k in CLEARED_ENV if k in os.environ),
    )
    return output


def summary(output: dict) -> list[str]:
    record = output["record"]
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"correct={output['correct']} attempted={output['attempted']} "
        f"failed={output['failed']} error_rate={record['error_rate']:.4g}"
    ]
    lines += [f"#   {reason}" for reason in record["failures"]]
    for name, metric in output["metrics"].items():
        lines.append(f"#   {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record.get("named", {}).items():
        unit = "1/s" if name == "qps" else "B" if "bytes" in name else "s"
        lines.append(f"#   ({name}){'':<{42 - len(name)}} {value:>16.6g} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = []
    for name in names:
        try:
            output = run_child(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print("\n".join(summary(output)))
        print(json.dumps({"record": output["record"]}))
        outputs.append(output)

    if len(outputs) == 1:
        metrics = outputs[0]["metrics"]
    else:
        metrics = {
            f"{o['record']['workload']}:{name}": metric
            for o in outputs
            for name, metric in o["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(o["correct"] for o in outputs),
                "attempted": sum(o["attempted"] for o in outputs),
                "failed": sum(o["failed"] for o in outputs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
