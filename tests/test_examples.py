"""Tests that the example scripts are runnable."""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {path.name for path in EXAMPLES}
        assert "quickstart.py" in names
        assert len(EXAMPLES) >= 3  # the deliverable minimum

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_quickstart_runs_end_to_end(self):
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py", "coremark", "6000"],
            capture_output=True, text=True, timeout=300,
            cwd=Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "speedup" in result.stdout
        assert "coverage" in result.stdout

    def test_quickstart_rejects_unknown_workload(self):
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py", "not-a-workload"],
            capture_output=True, text=True, timeout=60,
            cwd=Path(__file__).parent.parent,
        )
        assert result.returncode != 0

    def test_eves_shootout_runs_end_to_end(self):
        result = subprocess.run(
            [sys.executable, "examples/eves_shootout.py", "coremark"],
            capture_output=True, text=True, timeout=300,
            cwd=Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "eves 32KB" in result.stdout
        assert "AVERAGE" in result.stdout

    def test_listing1_walkthrough_runs(self):
        result = subprocess.run(
            [sys.executable, "examples/listing1_walkthrough.py", "8", "8"],
            capture_output=True, text=True, timeout=300,
            cwd=Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "SAP" in result.stdout
