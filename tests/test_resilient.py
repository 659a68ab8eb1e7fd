"""Tests for the fault-tolerant sweep engine (repro.harness.resilient).

Covers the acceptance scenarios of the resilient harness: fail-once
faults retried with backoff, hangs reaped (cooperatively inline, by
killing the worker in pool mode), campaigns killed mid-run and
finished by a rerun against the results database with byte-identical
results, and terminal failures degrading to partial results instead of
aborting the sweep.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import resilient, resultsdb
from repro.harness.resilient import (
    Cell,
    CellTimeout,
    ExecutionPolicy,
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultRule,
    RetryPolicy,
    parse_fault_plan,
    run_cells,
)
from repro.harness.runner import speedup_cell

REPO = Path(__file__).resolve().parent.parent

#: Retry policy with no real sleeping, for fast tests.
FAST_RETRY = RetryPolicy(max_retries=2, backoff=0.001, jitter=0.0)


def echo_cells(prefix: str, count: int = 3) -> list[Cell]:
    names = "abcdefghij"[:count]
    return [
        Cell(id=f"{prefix}/{n}", fn="_cells:echo_cell", spec={"x": i})
        for i, n in enumerate(names)
    ]


def _subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
    )
    env.update(extra)
    return env


class TestFaultPlanParsing:
    def test_basic_clause(self):
        assert parse_fault_plan("fig5/*:fail") == (
            FaultRule(pattern="fig5/*", action="fail", count=1),
        )

    def test_count_and_multiple_clauses(self):
        rules = parse_fault_plan("a:hang:3; b/*:crash ;c:fail")
        assert rules == (
            FaultRule("a", "hang", 3),
            FaultRule("b/*", "crash", 1),
            FaultRule("c", "fail", 1),
        )

    def test_pattern_may_contain_colons(self):
        (rule,) = parse_fault_plan("ns:cell/1:fail:2")
        assert rule == FaultRule("ns:cell/1", "fail", 2)

    def test_empty_plan(self):
        assert parse_fault_plan(None) == ()
        assert parse_fault_plan("  ;  ") == ()

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_fault_plan("cell:explode")
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_fault_plan("cell:corrupt-journal")  # a removed action


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, jitter=0.5)
        d0 = policy.delay("fig5/a", 0)
        assert d0 == policy.delay("fig5/a", 0)
        assert d0 != policy.delay("fig5/b", 0)
        assert 0.1 <= d0 <= 0.15
        assert 0.2 <= policy.delay("fig5/a", 1) <= 0.3

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(CellTimeout("t"))
        assert policy.is_transient(FaultInjected("f"))
        assert not policy.is_transient(ValueError("logic bug"))
        assert RetryPolicy(retry_all=True).is_transient(ValueError("x"))


class TestInlineSweep:
    def test_basic_sweep(self):
        report = run_cells(echo_cells("sweep"), ExecutionPolicy())
        assert report.ok
        assert report.values() == {
            "sweep/a": {"doubled": 0, "tag": ""},
            "sweep/b": {"doubled": 2, "tag": ""},
            "sweep/c": {"doubled": 4, "tag": ""},
        }
        assert all(o.attempts == 1 for o in report.outcomes.values())

    def test_duplicate_ids_rejected(self):
        cells = [
            Cell(id="dup", fn="_cells:echo_cell", spec={"x": 1}),
            Cell(id="dup", fn="_cells:echo_cell", spec={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate cell ids"):
            run_cells(cells, ExecutionPolicy())

    def test_deterministic_failure_not_retried(self):
        cells = echo_cells("det") + [
            Cell(id="det/boom", fn="_cells:boom_cell", spec={"x": 9}),
        ]
        report = run_cells(cells, ExecutionPolicy(retry=FAST_RETRY))
        assert not report.ok
        (failure,) = report.failures
        assert failure.id == "det/boom"
        assert failure.attempts == 1  # no retry for a ValueError
        assert "deterministic boom" in failure.error
        assert len(report.values()) == 3  # the sweep still finished

    def test_fail_once_fault_retried(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "flaky/b:fail")
        report = run_cells(
            echo_cells("flaky"), ExecutionPolicy(retry=FAST_RETRY)
        )
        assert report.ok
        assert report.outcomes["flaky/b"].attempts == 2
        assert report.outcomes["flaky/a"].attempts == 1

    def test_retry_exhaustion_degrades_gracefully(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "gone/b:fail:99")
        report = run_cells(
            echo_cells("gone"),
            ExecutionPolicy(retry=RetryPolicy(max_retries=1, backoff=0.001)),
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.id == "gone/b"
        assert failure.attempts == 2  # initial + one retry
        summary = report.failure_summary()
        assert summary["failed_cells"] == 1
        assert summary["total_cells"] == 3
        assert summary["cells"][0]["id"] == "gone/b"
        assert set(report.values()) == {"gone/a", "gone/c"}

    def test_hang_hits_cooperative_deadline(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "hang/a:hang")
        started = time.monotonic()
        report = run_cells(
            echo_cells("hang", 2),
            ExecutionPolicy(timeout=0.2, retry=FAST_RETRY),
        )
        assert report.ok
        assert report.outcomes["hang/a"].attempts == 2
        assert time.monotonic() - started < 5.0

    def test_ambient_policy_via_sweep(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "amb/*:fail:99")
        with resilient.use_policy(
            ExecutionPolicy(retry=RetryPolicy(max_retries=0))
        ):
            report = resilient.sweep(echo_cells("amb", 2))
        assert len(report.failures) == 2
        payload = resilient.attach_failures({"x": 1}, report)
        assert payload["failures"]["failed_cells"] == 2
        # Default ambient policy is restored on exit.
        assert resilient.current_policy().workers == 0
        assert resilient.current_policy().retry.max_retries == 2


class TestPipelineIntegration:
    def test_speedup_cell_runs_real_simulation(self):
        cell = speedup_cell("pipe/ok", "coremark", 2000, {"kind": "none"})
        report = run_cells([cell], ExecutionPolicy())
        value = report.value("pipe/ok")
        # No predictor vs the baseline: zero relative improvement.
        assert value["speedup"] == pytest.approx(0.0)
        assert value["predicted_loads"] == 0

    def test_simulation_honors_cooperative_timeout(self):
        from repro.harness.runner import clear_caches
        from repro.workloads.generator import generate_trace

        # Pre-generate the trace so only the (interruptible) timing
        # loop runs against the microscopic deadline.
        generate_trace("mcf", 6000, 3)
        clear_caches()
        cell = speedup_cell("pipe/slow", "mcf", 6000, {"kind": "none"}, seed=3)
        report = run_cells(
            [cell],
            ExecutionPolicy(
                timeout=1e-4, retry=RetryPolicy(max_retries=0)
            ),
        )
        (failure,) = report.failures
        assert "CellTimeout" in failure.error


class TestPoolExecution:
    """Worker-subprocess mode: hangs and crashes cannot kill the sweep."""

    def test_basic_pool_sweep_matches_inline(self):
        cells = echo_cells("pool")
        inline = run_cells(cells, ExecutionPolicy())
        pooled = run_cells(cells, ExecutionPolicy(workers=1))
        assert pooled.ok
        assert pooled.values() == inline.values()

    def test_hung_worker_reaped_and_retried(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "reap/a:hang")
        report = run_cells(
            echo_cells("reap", 2),
            ExecutionPolicy(workers=1, timeout=0.5, retry=FAST_RETRY),
        )
        assert report.ok
        assert report.outcomes["reap/a"].attempts == 2
        assert report.outcomes["reap/b"].attempts == 1

    def test_persistent_hang_fails_terminally_sweep_continues(
        self, monkeypatch
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, "stuck/a:hang:99")
        report = run_cells(
            echo_cells("stuck", 2),
            ExecutionPolicy(
                workers=1, timeout=0.4, retry=RetryPolicy(max_retries=0)
            ),
        )
        (failure,) = report.failures
        assert failure.id == "stuck/a"
        assert "timeout" in failure.error
        assert report.value("stuck/b") == {"doubled": 2, "tag": ""}

    def test_crashed_worker_retried(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash/b:crash")
        report = run_cells(
            echo_cells("crash"),
            ExecutionPolicy(workers=1, retry=FAST_RETRY),
        )
        assert report.ok
        assert report.outcomes["crash/b"].attempts == 2


CAMPAIGN_SCRIPT = """\
import json, sys
from repro.harness import resilient

cells = [
    resilient.Cell(
        id=f"camp/{name}", fn="_cells:counting_cell",
        spec={"x": i, "counter_path": sys.argv[1]},
    )
    for i, name in enumerate("abcde")
]
policy = resilient.ExecutionPolicy(
    retry=resilient.RetryPolicy(max_retries=0, backoff=0.001),
)
report = resilient.run_cells(cells, policy)
print(json.dumps({
    "values": report.values(),
    "statuses": {k: o.status for k, o in report.outcomes.items()},
}, sort_keys=True))
"""


def _run_campaign(tmp_path, counter, db_root=None, fault=None):
    extra = {FAULT_PLAN_ENV: fault} if fault else {}
    if db_root is not None:
        extra[resultsdb.ENV_VAR] = str(db_root)
    script = tmp_path / "campaign.py"
    script.write_text(CAMPAIGN_SCRIPT)
    return subprocess.run(
        [sys.executable, str(script), str(counter)],
        capture_output=True, text=True, env=_subprocess_env(**extra),
        timeout=120,
    )


def _computed(counter: Path) -> list[str]:
    """The cell bodies that ran, one ``x`` per line (see counting_cell)."""
    return counter.read_text().splitlines() if counter.exists() else []


class TestJournalResume:
    """A killed campaign finishes by rerunning against the results DB."""

    def test_kill_mid_run_then_resume_is_byte_identical(self, tmp_path):
        db_root = tmp_path / "resultsdb"
        counter = tmp_path / "count"
        # A crash fault in inline mode takes down the whole campaign
        # (os._exit), like kill -9 mid-run would.
        crashed = _run_campaign(
            tmp_path, counter, db_root, fault="camp/c:crash:99"
        )
        assert crashed.returncode == 70, crashed.stderr
        assert _computed(counter) == ["0", "1"]
        assert len(list(db_root.glob("??/*.res"))) == 2

        rerun = _run_campaign(tmp_path, counter, db_root)
        assert rerun.returncode == 0, rerun.stderr
        # The rerun computed exactly the cells the killed run never
        # stored.
        assert _computed(counter) == ["0", "1", "2", "3", "4"]
        clean = _run_campaign(tmp_path, tmp_path / "clean-count")
        assert clean.returncode == 0, clean.stderr

        rerun_out = json.loads(rerun.stdout)
        # Byte-identical final values despite the kill + rerun.
        assert json.dumps(rerun_out["values"], sort_keys=True) == \
            json.dumps(json.loads(clean.stdout)["values"], sort_keys=True)
        # Cells finished before the crash were served, not re-run.
        assert rerun_out["statuses"]["camp/a"] == "cached"
        assert rerun_out["statuses"]["camp/b"] == "cached"
        assert rerun_out["statuses"]["camp/c"] == "ok"

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        report = run_cells(
            echo_cells("prog"),
            ExecutionPolicy(
                progress=lambda o, done, total: seen.append(
                    (o.id, o.status, done, total)
                ),
            ),
        )
        assert report.ok
        assert [s[0] for s in seen] == ["prog/a", "prog/b", "prog/c"]
        assert [s[2] for s in seen] == [1, 2, 3]
        assert all(s[3] == 3 for s in seen)
