"""CLI robustness tests: error paths, exit codes, atomic output, resume.

Exit-code contract (see repro.cli): 0 success, 2 bad input, 3 partial
sweep failure, 130 interrupted.  A tiny one-workload scale is patched
in for the sweep tests so they run in seconds.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.harness import resilient, resultsdb
from repro.harness.presets import ExperimentScale
from repro.harness.resilient import FAULT_PLAN_ENV

REPO = Path(__file__).resolve().parent.parent

TINY = ExperimentScale(
    name="smoke", workloads=("coremark",), trace_length=2000
)


@pytest.fixture
def tiny_smoke(monkeypatch):
    monkeypatch.setitem(cli._SCALES, "smoke", TINY)


class TestSimulateErrors:
    def test_missing_trace_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not found" in err

    def test_trace_path_is_directory(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_corrupt_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not { json\nnot even close\n")
        assert main(["simulate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt or not a trace" in err

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["simulate", str(empty)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRunFlags:
    def test_json_output_is_atomic_and_complete(
        self, tiny_smoke, tmp_path, capsys
    ):
        out = tmp_path / "fig6.json"
        assert main([
            "run", "fig6", "--scale", "smoke", "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["speedup"]) == {
            "base", "m-am", "pc-am-64", "pc-am-infinite",
        }
        # No temp-file droppings from the atomic write.
        assert [p.name for p in tmp_path.iterdir()] == ["fig6.json"]
        capsys.readouterr()

    def test_partial_failure_exits_3_with_results(
        self, tiny_smoke, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, "fig6/m-am/*:fail:99")
        rc = main([
            "run", "fig6", "--scale", "smoke", "--max-retries", "0",
        ])
        assert rc == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["failures"]["failed_cells"] == 1
        assert payload["failures"]["cells"][0]["id"].startswith("fig6/m-am/")
        # Partial results for the surviving variants are still there.
        assert payload["speedup"]["base"] is not None
        assert "cells failed" in captured.err

    def test_journal_then_resume_same_payload(
        self, tiny_smoke, tmp_path, monkeypatch, capsys
    ):
        # A rerun against the results DB replays the finished campaign,
        # in a worker pool just as inline.
        monkeypatch.setenv(resultsdb.ENV_VAR, str(tmp_path / "resultsdb"))
        argv = ["run", "fig6", "--scale", "smoke"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        resilient.reset_db_usage_totals()
        resultsdb.reset_active_db()  # fresh memo, like a new process
        assert main(argv + ["--workers", "1"]) == 0
        captured = capsys.readouterr()
        rerun = json.loads(captured.out)
        assert json.dumps(rerun, sort_keys=True) == \
            json.dumps(first, sort_keys=True)
        # Progress lines report every cell as served from the DB.
        progress = [
            line for line in captured.err.splitlines()
            if line.startswith("[")
        ]
        assert progress
        assert all(line.endswith(": cached") for line in progress)
        assert "(100%), 0 computed" in captured.err

    @pytest.mark.parametrize("with_db", [True, False], ids=["db", "no-db"])
    def test_interrupt_exits_130_with_rerun_hint(
        self, with_db, tmp_path, monkeypatch, capsys
    ):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._EXPERIMENTS, "killed", (interrupted, False))
        if with_db:
            monkeypatch.setenv(resultsdb.ENV_VAR, str(tmp_path / "db"))
        assert main(["run", "killed"]) == 130
        err = capsys.readouterr().err
        if with_db:
            assert "rerun the same command to finish" in err
        else:
            assert f"set {resultsdb.ENV_VAR}" in err


SWEEP_COMMANDS = {
    "run": ["run", "fig6", "--scale", "smoke"],
    "explore": ["explore", "--grid", "smoke", "--scale", "smoke",
                "--mode", "functional", "--metric", "coverage"],
}


@pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
class TestSweepFlags:
    """``run`` and ``explore`` reject unusable resilience settings."""

    @pytest.mark.parametrize("flags, message", [
        (["--timeout", "0"], "--timeout must be > 0, got 0.0"),
        (["--timeout", "-1"], "--timeout must be > 0, got -1.0"),
        (["--workers", "-2"], "--workers must be >= 0, got -2"),
        (["--max-retries", "-1"], "--max-retries must be >= 0, got -1"),
    ], ids=["timeout-zero", "timeout-negative", "workers", "max-retries"])
    def test_bad_flag_exits_2(
        self, tiny_smoke, command, flags, message, capsys
    ):
        assert main(SWEEP_COMMANDS[command] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err

    def test_results_db_path_not_a_directory(
        self, tiny_smoke, command, tmp_path, monkeypatch, capsys
    ):
        not_a_dir = tmp_path / "resultsdb"
        not_a_dir.write_text("")
        monkeypatch.setenv(resultsdb.ENV_VAR, str(not_a_dir))
        assert main(SWEEP_COMMANDS[command]) == 2
        assert "results database path is not a directory" in \
            capsys.readouterr().err


class TestUnknownNamesListValid:
    """Unknown workload/predictor names exit 2 and list the valid ones."""

    def test_simulate_unknown_predictor(self, tmp_path, capsys):
        from repro.workloads.generator import generate_trace

        trace_file = tmp_path / "t.jsonl"
        generate_trace("coremark", 500).save(trace_file)
        rc = main([
            "simulate", str(trace_file), "--predictor", "oracle9000",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown predictor 'oracle9000'" in err
        for name in ("composite", "eves-8kb", "lvp", "svp"):
            assert name in err

    def test_bench_is_not_a_command(self, capsys):
        # perfbench/run.py is the one benchmark; the CLI has none.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_loadgen_unknown_workload(self, capsys):
        assert main([
            "loadgen", "--connect", "127.0.0.1:1", "--workload", "spec2077",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'spec2077'" in err
        assert "coremark" in err

    def test_loadgen_unknown_predictor(self, capsys):
        assert main([
            "loadgen", "--connect", "127.0.0.1:1", "--predictor", "oracle9000",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown predictor 'oracle9000'" in err
        assert "composite" in err


#: A ``loadgen`` invocation that passes the required ``--connect``
#: check, so each row below reaches its own flag check.
_LOADGEN = ["loadgen", "--connect", "127.0.0.1:1"]


class TestServeLoadgenFlagErrors:
    @pytest.mark.parametrize("argv,fragment", [
        (["serve", "--port", "70000"], "--port"),
        (["serve", "--max-queue", "0"], "--max-queue"),
        (["serve", "--max-batch", "0"], "--max-batch"),
        (["serve", "--request-timeout", "-1"], "--request-timeout"),
        (["serve", "--max-sessions", "0"], "--max-sessions"),
        (["serve", "--max-session-bytes", "0"], "--max-session-bytes"),
        ([*_LOADGEN, "--sessions", "0"], "--sessions"),
        ([*_LOADGEN, "--length", "50"], "--length"),
        ([*_LOADGEN, "--seed", "-1"], "--seed"),
        ([*_LOADGEN, "--events-per-request", "0"], "--events-per-request"),
        ([*_LOADGEN, "--pipeline-depth", "0"], "--pipeline-depth"),
        (["loadgen", "--connect", "nonsense"], "--connect"),
        (["loadgen", "--connect", "host:notaport"], "--connect"),
        (["loadgen", "--workload", "coremark"], "--connect"),
    ])
    def test_bad_flag_values_exit_2(self, argv, fragment, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert fragment in err

    def test_loadgen_connect_to_dead_server_exits_2(self, capsys):
        rc = main([
            "loadgen", "--connect", "127.0.0.1:1",
            "--workload", "coremark", "--length", "500",
        ])
        assert rc == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestPredictorSpecValidation:
    """Malformed predictor specs raise ValueError, never KeyError."""

    @pytest.mark.parametrize("spec,fragment", [
        ("composite", "must be a dict"),
        (["composite"], "must be a dict"),
        ({}, "missing 'kind'"),
        ({"config": None}, "missing 'kind'"),
        ({"kind": "composite"}, "missing 'config'"),
        ({"kind": "component"}, "missing 'name'"),
        ({"kind": "component", "name": "lvp"}, "missing 'entries'"),
        ({"kind": "eves"}, "missing 'variant'"),
        ({"kind": "eves", "variant": "64kb"}, "64kb"),
        ({"kind": "mystery"}, "mystery"),
    ])
    def test_malformed_specs_raise_value_error(self, spec, fragment):
        from repro.harness.runner import build_predictor

        with pytest.raises(ValueError, match=fragment):
            build_predictor(spec)

    def test_valid_specs_still_build(self):
        from repro.harness.runner import build_predictor

        assert build_predictor(None) is None
        assert build_predictor({"kind": "none"}) is None
        host = build_predictor(
            {"kind": "component", "name": "lvp", "entries": 64}
        )
        assert host is not None

    def test_bad_spec_surfaces_as_exit_2(self, monkeypatch, capsys):
        from repro.harness.runner import build_predictor

        monkeypatch.setitem(
            cli._EXPERIMENTS,
            "badspec",
            (lambda: build_predictor({"kind": "component"}), False),
        )
        assert main(["run", "badspec"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing 'name'" in err


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _no_ambient_store(self, monkeypatch):
        from repro.harness import runner
        from repro.workloads.store import ENV_VAR

        monkeypatch.delenv(ENV_VAR, raising=False)
        runner.clear_caches()
        yield
        runner.clear_caches()

    def _populate(self, root):
        from repro.workloads.generator import GENERATOR_VERSION, _generate
        from repro.workloads.store import TraceStore

        trace = _generate("coremark", 800, 0)
        trace.pack()
        TraceStore(root).save(trace, 800, GENERATOR_VERSION)

    def test_stats_reports_entries(self, tmp_path, capsys):
        root = tmp_path / "store"
        self._populate(root)
        assert main(["cache", "--stats", "--dir", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0
        assert "process_stats" not in payload

    def test_stats_uses_env_var(self, tmp_path, monkeypatch, capsys):
        from repro.workloads.store import ENV_VAR

        root = tmp_path / "store"
        self._populate(root)
        monkeypatch.setenv(ENV_VAR, str(root))
        assert main(["cache", "--stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_clear_removes_entries(self, tmp_path, capsys):
        root = tmp_path / "store"
        self._populate(root)
        assert main(["cache", "--clear", "--dir", str(root)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert main(["cache", "--stats", "--dir", str(root)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_no_store_configured_exits_2(self, capsys):
        assert main(["cache", "--stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no trace store configured" in err

    def test_store_path_is_a_file_exits_2(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main(["cache", "--stats", "--dir", str(not_a_dir)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_stats_and_clear_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "--stats", "--clear", "--dir", str(tmp_path)])


class TestExploreFlagErrors:
    """``explore`` validation: exit 2 with the valid names listed."""

    @pytest.mark.parametrize("argv,fragment,listed", [
        (["explore", "--grid", "bogus"], "unknown grid 'bogus'", "table6"),
        (["explore", "--scale", "bogus"], "unknown scale 'bogus'", "quick"),
        (["explore", "--mode", "quantum"], "unknown mode 'quantum'",
         "timing"),
        (["explore", "--metric", "vibes"], "unknown metric 'vibes'",
         "speedup"),
        (["explore", "--mode", "functional", "--metric", "speedup"],
         "unknown metric 'speedup'", "coverage"),
        (["explore", "--eta", "1.0"], "--eta must be > 1.0", "1.0"),
        (["explore", "--rungs", "0"], "--rungs must be >= 1", "0"),
    ])
    def test_bad_flag_values_exit_2(self, argv, fragment, listed, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err
        assert listed in err

    def test_unknown_grid_lists_every_grid(self, capsys):
        from repro.harness.presets import EXPLORE_GRIDS

        assert main(["explore", "--grid", "bogus"]) == 2
        err = capsys.readouterr().err
        for name in EXPLORE_GRIDS:
            assert name in err


class TestExploreEndToEnd:
    def test_smoke_grid_ranked_report(self, tiny_smoke, tmp_path, capsys):
        out = tmp_path / "ranked.json"
        assert main([
            "explore", "--grid", "smoke", "--scale", "smoke",
            "--mode", "functional", "--metric", "coverage",
            "-o", str(out),
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["grid"] == "smoke"
        assert payload["groups"]["t256"]["winner"]
        assert len(payload["groups"]["t256"]["ranking"]) == 4
        assert "# explore smoke finished" in captured.err
        assert "full-grid cells" in captured.err
        # The -o report matches stdout and left no temp droppings.
        assert json.loads(out.read_text()) == payload
        assert [p.name for p in tmp_path.iterdir()] == ["ranked.json"]

    def test_cell_failures_exit_3_with_partial_ranking(
        self, tiny_smoke, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV, "explore/smoke/*/*/fuse/*:fail:99"
        )
        rc = main([
            "explore", "--grid", "smoke", "--scale", "smoke",
            "--mode", "functional", "--metric", "coverage",
            "--max-retries", "0",
        ])
        assert rc == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["failures"]["failed_cells"] >= 1
        ranking = payload["groups"]["t256"]["ranking"]
        assert ranking[-1]["label"] == "64-64-64-64/fuse/pc-am"
        assert "sweep cell(s) failed" in captured.err


class TestCacheWhich:
    """``cache --which``: results database and combined views."""

    def _populate_results(self, root):
        from repro.harness.resultsdb import ResultsDb

        ResultsDb(root).store("ab" * 32, {"v": 1})

    def test_unknown_which_exits_2(self, tmp_path, capsys):
        assert main([
            "cache", "--stats", "--which", "bogus", "--dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown cache 'bogus'" in err
        assert "trace" in err and "results" in err and "all" in err

    def test_results_stats_and_clear(self, tmp_path, capsys):
        root = tmp_path / "db"
        self._populate_results(root)
        assert main([
            "cache", "--stats", "--which", "results",
            "--results-dir", str(root),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0
        assert main([
            "cache", "--clear", "--which", "results",
            "--results-dir", str(root),
        ]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out

    def test_results_stats_uses_env_var(self, tmp_path, monkeypatch, capsys):
        from repro.harness.resultsdb import ENV_VAR

        root = tmp_path / "db"
        self._populate_results(root)
        monkeypatch.setenv(ENV_VAR, str(root))
        assert main(["cache", "--stats", "--which", "results"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_results_not_configured_exits_2(self, capsys):
        assert main(["cache", "--stats", "--which", "results"]) == 2
        err = capsys.readouterr().err
        assert "no results database configured" in err
        assert "REPRO_RESULTS_DB_DIR" in err

    def test_all_reports_both_with_nulls(self, tmp_path, monkeypatch, capsys):
        from repro.workloads.store import ENV_VAR as TRACE_ENV

        monkeypatch.delenv(TRACE_ENV, raising=False)
        root = tmp_path / "db"
        self._populate_results(root)
        assert main([
            "cache", "--stats", "--which", "all",
            "--results-dir", str(root),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_store"] is None
        assert payload["results_db"]["entries"] == 1

    def test_all_with_nothing_configured_exits_2(self, monkeypatch, capsys):
        from repro.workloads.store import ENV_VAR as TRACE_ENV

        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert main(["cache", "--stats", "--which", "all"]) == 2
        assert "no caches configured" in capsys.readouterr().err

    def test_results_path_is_a_file_exits_2(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main([
            "cache", "--stats", "--which", "results",
            "--results-dir", str(not_a_dir),
        ]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestCrashtestFlags:
    """``crashtest`` flag validation: exit 2 before any server starts."""

    def test_bad_kills(self, capsys):
        assert main(["crashtest", "--kills", "0"]) == 2
        assert "--kills must be >= 1" in capsys.readouterr().err

    def test_bad_length(self, capsys):
        assert main(["crashtest", "--length", "50"]) == 2
        assert "--length must be >= 100" in capsys.readouterr().err

    def test_bad_seed(self, capsys):
        assert main(["crashtest", "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_bad_events_per_request(self, capsys):
        assert main(["crashtest", "--events-per-request", "0"]) == 2
        assert "--events-per-request" in capsys.readouterr().err

    def test_bad_fsync_interval(self, capsys):
        assert main(["crashtest", "--fsync-interval", "-0.5"]) == 2
        assert "--fsync-interval must be >= 0" in capsys.readouterr().err

    def test_bad_checkpoint_every(self, capsys):
        assert main(["crashtest", "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err

    def test_bad_timeout(self, capsys):
        assert main(["crashtest", "--timeout", "0"]) == 2
        assert "--timeout must be > 0" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        assert main(["crashtest", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_predictor(self, capsys):
        assert main(["crashtest", "--predictor", "oracle9000"]) == 2
        assert "unknown predictor" in capsys.readouterr().err

    def test_data_dir_is_a_file(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main(["crashtest", "--data-dir", str(not_a_dir)]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestServeDurabilityFlags:
    """``serve`` shares the durability flag validation."""

    def test_bad_fsync_interval(self, capsys):
        assert main(["serve", "--fsync-interval", "-1"]) == 2
        assert "--fsync-interval must be >= 0" in capsys.readouterr().err

    def test_bad_wal_segment_bytes(self, capsys):
        assert main(["serve", "--wal-segment-bytes", "16"]) == 2
        assert "--wal-segment-bytes must be >= 4096" in \
            capsys.readouterr().err

    def test_data_dir_is_a_file(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert main(["serve", "--data-dir", str(not_a_dir)]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestShardingFlags:
    """Sharded-tier flag validation across serve and crashtest."""

    def test_serve_bad_shards(self, capsys):
        assert main(["serve", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_serve_bad_ring_replicas(self, capsys):
        assert main(["serve", "--shards", "2", "--ring-replicas", "0"]) == 2
        assert "--ring-replicas must be >= 1" in capsys.readouterr().err

    def test_serve_bad_stats_interval(self, capsys):
        assert main(["serve", "--stats-interval", "-1"]) == 2
        assert "--stats-interval must be >= 0" in capsys.readouterr().err

    def test_serve_bad_seq_cache(self, capsys):
        assert main(["serve", "--seq-cache-size", "0"]) == 2
        assert "--seq-cache-size must be >= 1" in capsys.readouterr().err
        assert main(["serve", "--seq-cache-bytes", "0"]) == 2
        assert "--seq-cache-bytes must be >= 1" in capsys.readouterr().err

    def test_crashtest_kill_router_needs_a_tier(self, capsys):
        assert main(["crashtest", "--kill-router"]) == 2
        assert "pass --shards N with N > 1" in capsys.readouterr().err

    def test_crashtest_bad_sessions(self, capsys):
        assert main(["crashtest", "--shards", "2", "--sessions", "0"]) == 2
        assert "--sessions must be >= 1" in capsys.readouterr().err

    def test_crashtest_bad_migrations(self, capsys):
        assert main(["crashtest", "--shards", "2",
                     "--migrations", "-1"]) == 2
        assert "--migrations must be >= 0" in capsys.readouterr().err


class TestStandbyFlags:
    """Warm-standby flag validation across serve/crashtest."""

    def test_serve_bad_standbys(self, capsys):
        assert main(["serve", "--standbys", "2"]) == 2
        assert "--standbys must be 0 or 1" in capsys.readouterr().err

    def test_serve_standbys_require_data_dir(self, capsys):
        assert main(["serve", "--shards", "2", "--standbys", "1"]) == 2
        assert "--standbys requires --data-dir" in capsys.readouterr().err

    def test_serve_bad_health_interval(self, capsys):
        assert main(["serve", "--health-interval", "0"]) == 2
        assert "--health-interval must be > 0" in capsys.readouterr().err

    def test_serve_backoff_below_interval(self, capsys):
        assert main(["serve", "--health-interval", "1.0",
                     "--health-backoff-max", "0.5"]) == 2
        assert "--health-backoff-max must be >= --health-interval" in \
            capsys.readouterr().err

    def test_standby_of_bad_port(self, tmp_path, capsys):
        assert main(["serve", "--standby-of", "0",
                     "--data-dir", str(tmp_path)]) == 2
        assert "port in [1, 65535]" in capsys.readouterr().err

    def test_standby_of_requires_data_dir(self, capsys):
        assert main(["serve", "--standby-of", "9000"]) == 2
        assert "--standby-of requires --data-dir" in \
            capsys.readouterr().err

    def test_standby_of_excludes_sharding(self, tmp_path, capsys):
        assert main(["serve", "--standby-of", "9000", "--shards", "3",
                     "--data-dir", str(tmp_path)]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_crashtest_bad_standbys(self, capsys):
        assert main(["crashtest", "--shards", "2",
                     "--standbys", "3"]) == 2
        assert "--standbys must be 0 or 1" in capsys.readouterr().err

    def test_crashtest_standbys_need_a_tier(self, capsys):
        assert main(["crashtest", "--standbys", "1"]) == 2
        assert "pass --shards N with N > 1" in capsys.readouterr().err


CLI_DRIVER = """\
import sys
from repro import cli
from repro.harness.presets import ExperimentScale

cli._SCALES["smoke"] = ExperimentScale(
    name="smoke", workloads=("coremark",), trace_length=2000
)
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_cli(tmp_path, *args, fault=None, extra_env=None):
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    env["PYTHONPATH"] = str(REPO / "src")
    if fault:
        env[FAULT_PLAN_ENV] = fault
    if extra_env:
        env.update(extra_env)
    script = tmp_path / "cli_driver.py"
    script.write_text(CLI_DRIVER)
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _db_summary(stderr: str) -> tuple[int, int, int]:
    """(hits, lookups, computed) from the ``# results-db:`` line."""
    match = re.search(
        r"# results-db: (\d+)/(\d+) cells from cache \(\d+%\), "
        r"(\d+) computed", stderr,
    )
    assert match, stderr
    return tuple(int(n) for n in match.groups())


class TestKillAndResumeEndToEnd:
    def test_crash_mid_sweep_then_resume_matches_clean_run(self, tmp_path):
        db_root = tmp_path / "resultsdb"
        db_env = {resultsdb.ENV_VAR: str(db_root)}
        out_rerun = tmp_path / "rerun.json"
        out_clean = tmp_path / "clean.json"

        # Campaign killed mid-run: the third variant's cell crashes the
        # whole process (inline mode), like a kill -9 would.
        crashed = _run_cli(
            tmp_path, "run", "fig6", "--scale", "smoke",
            fault="fig6/pc-am-64/*:crash:99", extra_env=db_env,
        )
        assert crashed.returncode == 70, crashed.stderr
        stored = len(list(db_root.glob("??/*.res")))
        assert stored > 0

        # A plain rerun serves the stored cells and computes the rest.
        rerun = _run_cli(
            tmp_path, "run", "fig6", "--scale", "smoke",
            "--json", str(out_rerun), extra_env=db_env,
        )
        assert rerun.returncode == 0, rerun.stderr
        hits, lookups, computed = _db_summary(rerun.stderr)
        assert hits == stored
        assert computed == lookups - stored > 0

        clean = _run_cli(
            tmp_path, "run", "fig6", "--scale", "smoke",
            "--json", str(out_clean),
        )
        assert clean.returncode == 0, clean.stderr

        assert out_rerun.read_text() == out_clean.read_text()


class TestResultsDbEndToEnd:
    """Cross-invocation reuse through ``REPRO_RESULTS_DB_DIR``."""

    def test_repeat_explore_served_entirely_from_db(self, tmp_path):
        db_env = {"REPRO_RESULTS_DB_DIR": str(tmp_path / "resultsdb")}
        argv = (
            "explore", "--grid", "smoke", "--scale", "smoke",
            "--mode", "functional", "--metric", "coverage",
        )
        first = _run_cli(tmp_path, *argv, extra_env=db_env)
        assert first.returncode == 0, first.stderr
        assert "# results-db:" in first.stderr
        assert json.loads(first.stdout)["results_db"]["computed"] > 0

        again = _run_cli(tmp_path, *argv, extra_env=db_env)
        assert again.returncode == 0, again.stderr
        assert "(100%), 0 computed" in again.stderr
        payload = json.loads(again.stdout)
        assert payload["results_db"]["computed"] == 0
        assert payload["results_db"]["hit_rate"] == 1.0
        # Rankings are byte-identical whether computed or replayed.
        assert payload["groups"] == json.loads(first.stdout)["groups"]

    def test_run_and_resume_stdout_identical_with_db(self, tmp_path):
        db_env = {"REPRO_RESULTS_DB_DIR": str(tmp_path / "resultsdb")}
        argv = ("run", "fig6", "--scale", "smoke")
        first = _run_cli(tmp_path, *argv, extra_env=db_env)
        assert first.returncode == 0, first.stderr
        hits, lookups, computed = _db_summary(first.stderr)
        assert hits == 0 and computed == lookups > 0

        rerun = _run_cli(tmp_path, *argv, extra_env=db_env)
        assert rerun.returncode == 0, rerun.stderr
        # Every cell is served from the DB and stdout stays
        # byte-identical; the counters live on stderr only.
        assert _db_summary(rerun.stderr) == (lookups, lookups, 0)
        assert rerun.stdout == first.stdout
