"""Tiny-size passes of every benchmark workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import worker
from spans import JOIN_HOOKS, Hook, HookSet

HERE = Path(__file__).resolve().parent
worker.import_program()

WORKLOADS = worker.WORKLOADS
TINY = {
    "uniq-16n": replace(WORKLOADS["uniq-16n"], num_nodes=4, tuples=3_000),
    "uniq-64n": replace(WORKLOADS["uniq-64n"], num_nodes=16, tuples=3_000),
    "hotkey-16n": replace(
        WORKLOADS["hotkey-16n"], num_nodes=4, tuples=2_000, distinct_keys=200
    ),
    "serve-closed": replace(WORKLOADS["serve-closed"], num_nodes=4, tuples=2_000),
}

#: Every workload reports the same metrics, named by role (op / compare).
END_TO_END = {
    "setup_s", "op_s", "compare_s", "net_bytes", "max_recv_bytes", "model_s",
    "success_rate",
}


def declared(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        (name, trace): worker.run_workload(name, 3, 0.2, trace, config)
        for name, config in TINY.items()
        for trace in (False, True)
    }


def test_workloads_match_the_declared_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


def test_every_run_is_correct(runs):
    for key, output in runs.items():
        assert output["correct"], (key, output["record"]["failures"])
        assert output["attempted"] >= 1 and output["failed"] == 0
        assert output["record"]["error_rate"] == 0.0


def test_end_to_end_metrics_are_emitted_with_declared_units(runs):
    units = declared("end_to_end")
    assert set(units) == END_TO_END
    for name in TINY:
        metrics = runs[(name, False)]["metrics"]
        assert set(metrics) == END_TO_END, name
        for metric, body in metrics.items():
            assert body["unit"] == units[metric]
            assert body["value"] > 0, (name, metric)


def test_per_layer_metrics_are_emitted_with_declared_units(runs):
    units = declared("per_layer")
    for name in TINY:
        metrics = runs[(name, True)]["metrics"]
        assert set(metrics) == set(units), name
        for metric, body in metrics.items():
            assert body["unit"] == units[metric], metric


def test_layer_shares_sum_to_one(runs):
    for name in TINY:
        metrics = runs[(name, True)]["metrics"]
        for role in worker.ROLES:
            shares = [v["value"] for k, v in metrics.items()
                      if k.startswith(f"{role}.") and k.endswith(".share")]
            assert sum(shares) == pytest.approx(1.0), (name, role)


def test_serve_reaches_the_join_and_query_layers(runs):
    metrics = runs[("serve-closed", True)]["metrics"]
    for role in worker.ROLES:
        assert metrics[f"{role}.joins.local.calls"]["value"] > 0
        assert metrics[f"{role}.query.stats.calls"]["value"] > 0
    # Served queries come from the plan cache; alone, each one compiles.
    assert metrics["compare.query.compile.calls"]["value"] == 1
    assert metrics["serve.cache.hit_rate"]["value"] > 0


def test_every_hook_target_exists(runs):
    # Layer sums are checked per traced join; a miss fails the run.
    for name in TINY:
        assert runs[(name, True)]["record"]["hooks_absent"] == []


def test_migration_runs_only_on_hot_keys(runs):
    for name in ("uniq-16n", "uniq-64n"):
        assert runs[(name, True)]["metrics"]["op.exchange.migrate.calls"]["value"] == 0
    hot = runs[("hotkey-16n", True)]["metrics"]
    assert hot["op.exchange.migrate.calls"]["value"] > 0
    assert hot["compare.exchange.migrate.calls"]["value"] > 0
    assert hot["op.core.schedule.sharded_keys"]["value"] > 0


def test_messages_grow_with_the_node_count(runs):
    # The tiny uniq-64n input runs on 4x the nodes of the tiny uniq-16n one.
    def messages(name):
        return runs[(name, True)]["metrics"]["op.cluster.network.messages"]["value"]

    assert messages("uniq-64n") >= 10 * messages("uniq-16n")


def test_summary_names_every_algorithm(runs):
    for name, config in TINY.items():
        named = runs[(name, False)]["record"]["named"]
        if isinstance(config, worker.ServeConfig):
            assert {"qps", "query_p50_s", "query_p95_s"} <= set(named)
        else:
            for algorithm in config.algorithms:
                assert f"join_s.{algorithm}" in named


def test_wrong_expected_rows_raise_the_error_rate(monkeypatch):
    true_rows = worker.expected_rows
    monkeypatch.setattr(worker, "expected_rows", lambda c, w: true_rows(c, w) + 1)
    output = worker.run_workload("uniq-16n", 3, 0.05, False, TINY["uniq-16n"])
    assert not output["correct"]
    assert output["failed"] == output["attempted"] > 0
    assert output["record"]["error_rate"] > 0
    assert output["metrics"]["success_rate"]["value"] < 1


def test_missing_hook_target_is_recorded_as_absent():
    hooks = (
        Hook("x", "repro.joins.local:no_such_function"),
        Hook("x", "repro.no_such_module:f"),
        Hook("x", "repro.cluster.network:Network.no_such_method"),
    )
    with HookSet(hooks) as hook_set:
        assert hook_set._undo == []
    assert hook_set.absent == [h.target for h in hooks]


def test_hooks_are_restored():
    from repro.core import track_join
    from repro.joins import local

    original = local.local_join
    with HookSet(JOIN_HOOKS):
        assert local.local_join is not original
        assert track_join.local_join is local.local_join
    assert local.local_join is original and track_join.local_join is original


def test_run_without_program_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "uniq-16n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
