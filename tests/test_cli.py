"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import main
from repro.serve.session import PREDICTOR_NAMES


class TestList:
    def test_lists_experiments_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "table6" in out
        assert "coremark" in out


class TestRun:
    def test_run_static_table(self, capsys):
        assert main(["run", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 4

    def test_run_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert main(["run", "table4", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["rows"]) == 4
        capsys.readouterr()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--scale", "galactic"])


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([
            "report", "--sections", "table1", "table4", "-o", str(out),
        ]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "## table4" in text
        capsys.readouterr()


class TestSimulateCommand:
    def _saved_trace(self, tmp_path):
        from repro.workloads import generate_trace

        path = tmp_path / "trace.jsonl"
        generate_trace("coremark", 4000).save(path)
        return path

    def test_baseline_simulation(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main(["simulate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instructions"] == 4000
        assert payload["cycles"] > 0
        assert payload["predicted_loads"] == 0

    def test_composite_simulation(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main([
            "simulate", str(path), "--predictor", "composite",
            "--entries", "256",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_loads"] > 0
        assert 0 <= payload["coverage"] <= 1

    def test_single_component_simulation(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main([
            "simulate", str(path), "--predictor", "sap",
            "--entries", "1024",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_loads"] > 0

    @pytest.fixture(scope="class")
    def smoke_length_trace(self, tmp_path_factory):
        """Long enough (smoke scale) that a composite built with any
        epoch but the paper's 1M would print different numbers."""
        from repro.workloads import generate_trace

        path = tmp_path_factory.mktemp("simulate") / "mcf.jsonl"
        generate_trace("mcf", 20_000).save(path)
        return path

    @pytest.mark.parametrize("name", PREDICTOR_NAMES)
    def test_name_builds_the_session_predictor(
        self, name, smoke_length_trace, capsys
    ):
        """One name, one predictor: ``simulate --predictor X`` runs what
        a serve session opened as ``X`` holds (``NoPredictor`` for
        ``none``)."""
        from dataclasses import asdict

        from repro.isa.trace import Trace
        from repro.pipeline import simulate
        from repro.serve.session import PredictorSession, spec_from_name

        path = smoke_length_trace
        assert main([
            "simulate", str(path), "--predictor", name, "--entries", "256",
        ]) == 0
        printed = json.loads(capsys.readouterr().out)

        session = PredictorSession(spec_from_name(name, 256))
        result = simulate(Trace.load(path), session.predictor)
        expected = asdict(result)
        expected.update(ipc=result.ipc, coverage=result.coverage,
                        accuracy=result.accuracy,
                        branch_mpki=result.branch_mpki)
        assert printed == json.loads(json.dumps(expected, default=str))

    def test_unknown_predictor_rejected(self, tmp_path, capsys):
        path = self._saved_trace(tmp_path)
        assert main(["simulate", str(path), "--predictor", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown predictor" in err


class TestScaleResolution:
    def test_scale_from_env(self, monkeypatch):
        from repro.harness.presets import QUICK, SMOKE, scale_from_env

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env() is QUICK
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert scale_from_env() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            scale_from_env()


class TestServeDefaults:
    def test_serve_flags_default_to_their_server_config_fields(self):
        # An in-process server and `repro-lvp serve` must behave alike:
        # every flag that sets a ServerConfig field defaults to that
        # field's default, or, left unset (None), documents it.
        import dataclasses
        import re

        from repro.cli import _build_parser
        from repro.serve.config import ServerConfig

        parser = _build_parser()
        serve = next(
            action.choices["serve"] for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        fields = {f.name: f.default for f in dataclasses.fields(ServerConfig)}
        mirrored = [
            action for action in serve._actions if action.dest in fields
        ]
        assert {"max_batch", "max_queue", "max_sessions",
                "fsync_interval"} <= {a.dest for a in mirrored}
        for action in mirrored:
            default = fields[action.dest]
            if action.default is None and default is not None:
                documented = re.search(r"\(default: ([^)]*)\)", action.help)
                assert documented, action.dest
                assert documented.group(1) == str(default), action.dest
            else:
                assert action.default == default, action.dest
