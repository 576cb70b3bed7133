"""Tests for the whole-package phase-safety dataflow analyzer.

Each REP007–REP010 rule gets a true-positive fixture package (must
fire) and a near-miss counterpart (must stay silent); the runtime race
tracker, statement-span noqa suppression, the SARIF reporter, the
baseline workflow, and the lint result cache are covered alongside, and
the repository source itself is scanned as the closing integration
check.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import (
    RaceTracker,
    all_dataflow_rules,
    lint_paths,
    lint_source,
    race_tracker,
    sanitized,
    write_baseline,
)
from repro.analysis.sanitizer import shared_key, track_shared
from repro.errors import RaceError

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def lint_package(tmp_path: Path, sources: dict[str, str], **kwargs):
    """Write ``sources`` as a package under tmp_path and lint it."""
    package = tmp_path / "pkg"
    package.mkdir(exist_ok=True)
    (package / "__init__.py").write_text("")
    for name, source in sources.items():
        (package / name).write_text(source)
    return lint_paths([package], dataflow=True, **kwargs)


def codes_in(report, code: str) -> list[str]:
    return [d.code for d in report.diagnostics if d.code == code]


class TestRep007UnsynchronizedGlobalMutation:
    def test_task_mutation_of_global_dict_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "work.py": (
                    "COUNTS = {}\n"
                    "def work(node):\n"
                    "    COUNTS[node] = node\n"
                    "def launch(net):\n"
                    "    run_phase(net, tasks=[work])\n"
                )
            },
        )
        assert codes_in(report, "REP007") == ["REP007"]
        finding = next(d for d in report.diagnostics if d.code == "REP007")
        assert "phase" in finding.message

    def test_global_declared_augassign_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "work.py": (
                    "TOTAL = 0\n"
                    "def work(node):\n"
                    "    global TOTAL\n"
                    "    TOTAL += node\n"
                    "def launch(executor):\n"
                    "    executor.map(work, range(4))\n"
                )
            },
        )
        assert codes_in(report, "REP007") == ["REP007"]

    def test_mutation_under_module_lock_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "work.py": (
                    "import threading\n"
                    "COUNTS = {}\n"
                    "LOCK = threading.Lock()\n"
                    "def work(node):\n"
                    "    with LOCK:\n"
                    "        COUNTS[node] = node\n"
                    "def launch(net):\n"
                    "    run_phase(net, tasks=[work])\n"
                )
            },
        )
        assert codes_in(report, "REP007") == []

    def test_thread_local_state_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "work.py": (
                    "import threading\n"
                    "TLS = threading.local()\n"
                    "def work(node):\n"
                    "    TLS.cache[node] = node\n"
                    "def launch(net):\n"
                    "    run_phase(net, tasks=[work])\n"
                )
            },
        )
        assert codes_in(report, "REP007") == []

    def test_same_mutation_outside_task_context_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "work.py": (
                    "COUNTS = {}\n"
                    "def work(node):\n"
                    "    COUNTS[node] = node\n"
                )
            },
        )
        assert codes_in(report, "REP007") == []


class TestRep008ScratchKeyNamespace:
    def test_bare_literal_key_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "op.py": (
                    "class Build:\n"
                    "    def run(self, ctx):\n"
                    "        ctx.scratch['build'] = 1\n"
                )
            },
        )
        assert codes_in(report, "REP008") == ["REP008"]
        finding = next(d for d in report.diagnostics if d.code == "REP008")
        assert "not namespaced" in finding.message

    def test_colliding_namespaced_key_fires_per_site(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "ops.py": (
                    "class Build:\n"
                    "    def run(self, ctx):\n"
                    "        ctx.scratch['probe:state'] = 1\n"
                    "class Probe:\n"
                    "    def run(self, ctx):\n"
                    "        return ctx.scratch.get('probe:state')\n"
                )
            },
        )
        assert codes_in(report, "REP008") == ["REP008", "REP008"]
        finding = next(d for d in report.diagnostics if d.code == "REP008")
        assert "Build" in finding.message and "Probe" in finding.message

    def test_namespaced_single_owner_key_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "op.py": (
                    "class Build:\n"
                    "    def run(self, ctx):\n"
                    "        ctx.scratch['build:rows'] = 1\n"
                    "        return ctx.scratch.get('build:rows')\n"
                )
            },
        )
        assert codes_in(report, "REP008") == []

    def test_dynamic_identity_key_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "op.py": (
                    "class Build:\n"
                    "    def run(self, ctx):\n"
                    "        ctx.scratch[('build', self.index)] = 1\n"
                )
            },
        )
        assert codes_in(report, "REP008") == []


class TestRep009LockAsymmetry:
    CACHE_HEADER = (
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._entries = {}\n"
        "        self.hits = 0\n"
    )

    def test_unlocked_container_mutation_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "cache.py": self.CACHE_HEADER
                + (
                    "    def put(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._entries[key] = value\n"
                    "    def drop(self, key):\n"
                    "        del self._entries[key]\n"
                )
            },
        )
        assert codes_in(report, "REP009") == ["REP009"]
        finding = next(d for d in report.diagnostics if d.code == "REP009")
        assert "Cache.drop" in finding.message

    def test_unlocked_read_of_guarded_attr_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "cache.py": self.CACHE_HEADER
                + (
                    "    def record(self):\n"
                    "        with self._lock:\n"
                    "            self.hits += 1\n"
                    "    def stats(self):\n"
                    "        return {'hits': self.hits}\n"
                )
            },
        )
        assert codes_in(report, "REP009") == ["REP009"]
        finding = next(d for d in report.diagnostics if d.code == "REP009")
        assert "torn or stale" in finding.message

    def test_fully_locked_class_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "cache.py": self.CACHE_HEADER
                + (
                    "    def put(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._entries[key] = value\n"
                    "            self.hits += 1\n"
                    "    def stats(self):\n"
                    "        with self._lock:\n"
                    "            return {'hits': self.hits}\n"
                )
            },
        )
        assert codes_in(report, "REP009") == []

    def test_init_is_exempt(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "cache.py": self.CACHE_HEADER
                + (
                    "    def put(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._entries[key] = value\n"
                )
            },
        )
        assert codes_in(report, "REP009") == []

    def test_lockless_class_is_out_of_scope(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "bag.py": (
                    "class Bag:\n"
                    "    def __init__(self):\n"
                    "        self._items = {}\n"
                    "    def put(self, key, value):\n"
                    "        self._items[key] = value\n"
                )
            },
        )
        assert codes_in(report, "REP009") == []


class TestRep010DriverBlockingCall:
    SERVICE_HEADER = (
        "import threading\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._thread = threading.Thread(target=self._drive)\n"
        "    def _drive(self):\n"
        "        while True:\n"
        "            item = self._queue.get()\n"
        "            self._handle(item)\n"
    )

    def test_unbounded_wait_on_driver_path_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "service.py": self.SERVICE_HEADER
                + (
                    "    def _handle(self, item):\n"
                    "        self._ready.wait()\n"
                )
            },
        )
        assert codes_in(report, "REP010") == ["REP010"]
        finding = next(d for d in report.diagnostics if d.code == "REP010")
        assert "deadline" in finding.message
        # Severity lives on the rule (rendered as the SARIF level).
        assert all_dataflow_rules()["REP010"].severity == "warning"

    def test_time_sleep_on_driver_path_fires(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "service.py": self.SERVICE_HEADER
                + (
                    "    def _handle(self, item):\n"
                    "        import time\n"
                    "        time.sleep(0.5)\n"
                )
            },
        )
        assert codes_in(report, "REP010") == ["REP010"]

    def test_wait_with_timeout_is_clean(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "service.py": self.SERVICE_HEADER
                + (
                    "    def _handle(self, item):\n"
                    "        self._ready.wait(timeout=1.0)\n"
                )
            },
        )
        assert codes_in(report, "REP010") == []

    def test_driver_seed_idle_wait_is_exempt(self, tmp_path):
        # _drive's own queue.get() is the designed between-queries idle
        # wait; only functions it calls into are deadline-bound.
        report = lint_package(
            tmp_path,
            {
                "service.py": self.SERVICE_HEADER
                + (
                    "    def _handle(self, item):\n"
                    "        return item\n"
                )
            },
        )
        assert codes_in(report, "REP010") == []


class TestRaceTracker:
    def test_cross_thread_unlocked_write_raises(self):
        with sanitized():
            key = shared_key("test.counter")
            worker = threading.Thread(
                target=track_shared, args=(key,), kwargs={"write": True}
            )
            worker.start()
            worker.join()
            with pytest.raises(RaceError) as excinfo:
                track_shared(key, write=True)
            assert excinfo.value.kind == "write/write"

    def test_common_lock_makes_access_safe(self):
        lock = threading.Lock()
        with sanitized():
            key = shared_key("test.counter")
            worker = threading.Thread(
                target=track_shared,
                args=(key,),
                kwargs={"write": True, "locks": (lock,)},
            )
            worker.start()
            worker.join()
            track_shared(key, write=True, locks=(lock,))  # must not raise

    def test_cross_thread_reads_never_conflict(self):
        with sanitized():
            key = shared_key("test.counter")
            worker = threading.Thread(
                target=track_shared, args=(key,), kwargs={"write": False}
            )
            worker.start()
            worker.join()
            track_shared(key, write=False)  # read/read is not a race

    def test_unlocked_read_of_locked_write_raises(self):
        lock = threading.Lock()
        with sanitized():
            key = shared_key("test.counter")
            worker = threading.Thread(
                target=track_shared,
                args=(key,),
                kwargs={"write": True, "locks": (lock,)},
            )
            worker.start()
            worker.join()
            with pytest.raises(RaceError) as excinfo:
                track_shared(key, write=False)
            assert excinfo.value.kind == "read/write"

    def test_noop_when_tracker_absent(self, monkeypatch):
        # The tier-1 suite runs session-sanitized (conftest), so simulate
        # the disabled state directly: track_shared must be a pure no-op.
        from repro.analysis import sanitizer as sanitizer_module

        monkeypatch.setattr(sanitizer_module, "_race_tracker", None)
        track_shared("test.counter", write=True)  # must not record or raise
        assert race_tracker() is None

    def test_tracker_records_keys_while_sanitized(self):
        with sanitized():
            tracker = race_tracker()
            assert isinstance(tracker, RaceTracker)
            key = shared_key("test.visible")
            track_shared(key, write=True)
            assert key in tracker.keys()

    def test_shared_keys_never_repeat(self):
        keys = {shared_key("test.mint") for _ in range(64)}
        assert len(keys) == 64


class TestStatementSpanSuppression:
    def test_trailing_line_noqa_suppresses_multiline_statement(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[REP001]\n"
        )
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1

    def test_decorator_line_noqa_covers_function_header(self):
        source = (
            "import numpy as np\n"
            "import functools\n"
            "@functools.cache  # repro: noqa[REP001]\n"
            "def draw(rng=np.random.default_rng()):\n"
            "    return rng\n"
        )
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1

    def test_noqa_inside_body_does_not_blanket_siblings(self):
        source = (
            "import numpy as np\n"
            "def draw():\n"
            "    x = 1  # repro: noqa[REP001]\n"
            "    return np.random.default_rng()\n"
        )
        diagnostics, _ = lint_source(source, "snippet.py")
        assert [d.code for d in diagnostics] == ["REP001"]

    def test_multi_code_list_on_spanning_statement(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[REP001, REP005]\n"
        )
        diagnostics, suppressed = lint_source(source, "snippet.py")
        assert diagnostics == []
        assert suppressed == 1


class TestSarifReporter:
    def test_sarif_shape_and_severity(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "service.py": TestRep010DriverBlockingCall.SERVICE_HEADER
                + (
                    "    def _handle(self, item):\n"
                    "        self._ready.wait()\n"
                )
            },
        )
        sarif = json.loads(report.render_sarif())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"REP007", "REP008", "REP009", "REP010"} <= rule_ids
        results = run["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "REP010"
        assert results[0]["level"] == "warning"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("service.py")

    def test_sarif_cli(self, tmp_path, capsys):
        package = tmp_path / "clean"
        package.mkdir()
        (package / "mod.py").write_text("x = 1\n")
        assert (
            main(["lint", str(package), "--dataflow", "--format", "sarif"]) == 0
        )
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"] == []


class TestBaseline:
    VIOLATION = {
        "work.py": (
            "COUNTS = {}\n"
            "def work(node):\n"
            "    COUNTS[node] = node\n"
            "def launch(net):\n"
            "    run_phase(net, tasks=[work])\n"
        )
    }

    def test_baseline_round_trip_absorbs_findings(self, tmp_path):
        report = lint_package(tmp_path, self.VIOLATION)
        assert not report.clean
        baseline_path = tmp_path / "baseline.json"
        write_baseline(report, baseline_path)
        absorbed = lint_package(tmp_path, self.VIOLATION, baseline=baseline_path)
        assert absorbed.clean
        assert absorbed.baselined == 1

    def test_new_findings_still_fail_under_baseline(self, tmp_path):
        report = lint_package(tmp_path, self.VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(report, baseline_path)
        grown = dict(self.VIOLATION)
        grown["op.py"] = (
            "class Build:\n"
            "    def run(self, ctx):\n"
            "        ctx.scratch['build'] = 1\n"
        )
        after = lint_package(tmp_path, grown, baseline=baseline_path)
        assert not after.clean
        assert [d.code for d in after.diagnostics] == ["REP008"]
        assert after.baselined == 1

    def test_write_baseline_cli(self, tmp_path, capsys):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "work.py").write_text(self.VIOLATION["work.py"])
        baseline_path = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(package),
                    "--dataflow",
                    "--write-baseline",
                    str(baseline_path),
                ]
            )
            == 0
        )
        assert "1 finding(s)" in capsys.readouterr().out
        assert (
            main(
                ["lint", str(package), "--dataflow", "--baseline", str(baseline_path)]
            )
            == 0
        )


class TestLintCache:
    def test_cache_round_trip_and_invalidation(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sources = {"mod.py": "import numpy as np\nrng = np.random.default_rng()\n"}
        first = lint_package(tmp_path, sources, cache_dir=cache_dir)
        assert [d.code for d in first.diagnostics] == ["REP001"]
        assert (cache_dir / "cache.json").exists()
        second = lint_package(tmp_path, sources, cache_dir=cache_dir)
        assert [d.code for d in second.diagnostics] == ["REP001"]
        assert second.summary()["dataflow"]["modules"] == first.summary()[
            "dataflow"
        ]["modules"]
        # A content change must invalidate: the key includes size/mtime.
        fixed = {"mod.py": "import numpy as np\nrng = np.random.default_rng(7)\n"}
        third = lint_package(tmp_path, fixed, cache_dir=cache_dir)
        assert third.diagnostics == []

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("x = 1\n")
        assert main(["lint", str(package), "--dataflow", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / ".repro-lint-cache").exists()

    def test_cli_cache_default_writes_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("x = 1\n")
        assert main(["lint", str(package), "--dataflow"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro-lint-cache" / "cache.json").exists()


class TestRepoSelfScan:
    def test_package_is_dataflow_clean(self):
        report = lint_paths([REPO_SRC], dataflow=True)
        assert [d.render() for d in report.diagnostics] == []

    def test_summary_reports_dataflow_stats(self):
        summary = lint_paths([REPO_SRC], dataflow=True).summary()
        assert summary["dataflow_rules"] == [
            "REP007",
            "REP008",
            "REP009",
            "REP010",
        ]
        stats = summary["dataflow"]
        assert stats["modules"] > 50
        assert stats["functions"] > 500
        assert stats["call_edges"] > 1000
        assert stats["task_functions"] > 0
        assert stats["wall_seconds"] >= 0
