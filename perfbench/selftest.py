"""Tests of the benchmark itself: honest accounting, isolation, failure exit.

Run from the root of a checkout (about a minute)::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's own test suite; they
exercise the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from ledger import Ledger, check_accounting, layer_metrics  # noqa: E402
import worker  # noqa: E402

SMALL_FLEET = ["checkpoint", "analytics", "smallfile"]


def traced(call):
    worker.import_workload_modules("matrix-cold")
    worker.import_workload_modules("campaign-cold")
    ledger = Ledger()
    ledger.install()
    try:
        outcome = ledger.measure(call)
    finally:
        ledger.uninstall()
    return ledger, outcome


def assert_balanced(ledger: Ledger) -> None:
    assert check_accounting(ledger) == []
    total = ledger.attributed_s + ledger.unattributed_s
    assert total == pytest.approx(ledger.wall_s, abs=1e-6)


# --------------------------------------------------------------------------- #
# Span arithmetic on synthetic calls
# --------------------------------------------------------------------------- #


def test_self_times_and_remainder_sum_to_wall_on_nested_spans():
    import time

    ledger = Ledger()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = ledger.span("leaf", "inner", leaf)

    def outer():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_outer = ledger.span("outer", "outer", outer)

    def failing():
        wrapped_leaf()
        raise ValueError("boom")

    wrapped_failing = ledger.span("failing", "outer", failing)

    def region():
        wrapped_outer()
        time.sleep(0.01)  # unattributed
        with pytest.raises(ValueError):
            wrapped_failing()

    ledger.measure(region)
    assert_balanced(ledger)
    assert ledger.calls == {"leaf": 3, "outer": 1, "failing": 1}
    assert ledger.self_s["inner"] == pytest.approx(ledger.total_s["leaf"])
    assert ledger.total_s["outer"] >= ledger.self_s["outer"] + 2 * 0.01 - 1e-3
    assert ledger.unattributed_s >= 0.01
    assert ledger.unattributed_s < ledger.wall_s


def test_uninstall_restores_every_entry_point():
    worker.import_workload_modules("matrix-cold")
    from repro.model.stepper import ModelStepper
    from repro.scenarios import matrix, spec

    before = (spec.build_scenario, matrix.build_scenario, ModelStepper._phase_admission)
    ledger = Ledger()
    ledger.install()
    assert matrix.build_scenario is not before[1]
    ledger.uninstall()
    assert (spec.build_scenario, matrix.build_scenario,
            ModelStepper._phase_admission) == before


# --------------------------------------------------------------------------- #
# The real layers
# --------------------------------------------------------------------------- #


def test_matrix_books_balance_and_batch_counts_are_consistent(tmp_path):
    ledger, outcome = traced(
        lambda: worker.run_matrix(tmp_path, None, 1, False, SMALL_FLEET))
    assert_balanced(ledger)
    m = layer_metrics(ledger)
    assert outcome["failed_tasks"] == 0
    assert m["ledger.unattributed_frac"] < 0.05
    assert m["scenarios.builds"] >= outcome["attempted"]
    assert m["cache.puts"] == outcome["attempted"] == m["journal.appends"]
    assert 0 < m["batch.member_steps"] <= m["batch.ticks"] * m["batch.members_per_bucket"] * m["batch.buckets"]
    assert 0.0 <= m["batch.dead_lane_frac"] < 1.0
    assert m["batch.control_s"] > 0 and m["batch.kernel_s"] > 0
    assert m["simulator.runs"] == 0
    assert m["engine.events"] > 0 and m["pfs.server_commits"] > 0


def test_campaign_books_balance(tmp_path):
    ids = ["table1", "figure10", "figure11"]
    ledger, outcome = traced(lambda: worker.run_paper_campaign(tmp_path, ids))
    assert_balanced(ledger)
    m = layer_metrics(ledger)
    assert outcome["attempted"] == len(ids)
    assert m["ledger.unattributed_frac"] < 0.05
    for experiment_id in ids:
        assert m[f"experiments.{experiment_id}_s"] > 0
    assert m["experiments.figure9_s"] == 0
    assert m["simulator.runs"] > 0 and m["simulator.steps"] > 0
    assert m["batch.ticks"] == 0


def test_pool_utilization_is_at_most_one(tmp_path):
    ledger, _ = traced(
        lambda: worker.run_matrix(tmp_path, None, 2, False, SMALL_FLEET))
    assert_balanced(ledger)
    m = layer_metrics(ledger)
    assert m["executor.work_units"] >= 2
    assert 0.0 < m["executor.pool_utilization"] <= 1.0


def test_telemetry_session_is_persisted_and_counted(tmp_path):
    ledger, outcome = traced(
        lambda: worker.run_matrix(tmp_path, None, 1, True, SMALL_FLEET[:2]))
    assert_balanced(ledger)
    m = layer_metrics(ledger)
    assert m["obs.spans"] > 0 and m["obs.counters"] > 0 and m["obs.persist_s"] > 0
    assert list((tmp_path / "store").glob("*/telemetry.json"))


# --------------------------------------------------------------------------- #
# The command
# --------------------------------------------------------------------------- #


def _tree(root: Path):
    """(path, size, mtime) of every file outside caches and bench scratch."""
    skip = {"__pycache__", ".bench_tmp", ".bench_state", ".git", ".pytest_cache",
            ".hypothesis"}
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = Path(dirpath) / name
            stat = path.stat()
            found[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return found


def _result_line(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_a_run_leaves_the_repository_tree_unchanged():
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "matrix-cold-jobs2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=180,
        env={**os.environ, "REPRO_CHAOS": '{"faults": []}'},
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert _tree(ROOT) == before
    assert not list((ROOT / ".bench_tmp").glob("*"))


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
