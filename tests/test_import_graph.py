"""What each serving process imports, checked in fresh interpreters.

The sharded tier's router only forwards frames and supervises worker
processes, so it must start without numpy, the predictors, the timing
model or the harness; a worker serves sessions but never runs the
figure sweeps.  Package ``__init__``s re-export lazily
(:mod:`repro.common.lazy`), so every public name must still resolve.
Each check runs in its own ``python -c`` process: the test session has
long since imported everything.

Registries that fill when a cell function's module is imported must
not depend on what a process happened to import before: results-DB
fingerprints are computed in a process that imports nothing but
:mod:`repro.harness.resultsdb`, in one that imported the whole CLI
first, and compared with values pinned before the package exports
became lazy; a sweep's pre-warm hook is found from
:mod:`repro.harness.resilient` alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the router process runs: the CLI, then the tier's own modules.
ROUTER_MODULES = (
    "repro.cli", "repro.serve.router", "repro.serve.shardmgr",
    "repro.serve.client", "repro.serve.ring", "repro.serve.protocol",
    "repro.serve.config",
)

PACKAGES = (
    "repro", "repro.common", "repro.harness", "repro.pipeline",
    "repro.branch", "repro.memory", "repro.workloads", "repro.serve",
)


def _python(code: str):
    """Run ``code`` in a fresh interpreter; returns its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_after(imports: str) -> set[str]:
    return set(_python(
        "import json, sys\n" + imports
        + "\nprint(json.dumps(sorted(sys.modules)))"
    ))


class TestProcessImportSets:
    def test_router_loads_no_numpy_and_no_simulator(self):
        loaded = _loaded_after(
            "from repro import cli\n"
            "cli._build_parser()\n"
            "import repro.serve.router"
        )
        banned = sorted(
            name for name in loaded
            if name == "numpy" or name.startswith("numpy.")
            or name == "repro.pipeline.core"
            or name.startswith(("repro.harness.", "repro.predictors",
                                "repro.eves"))
        )
        assert banned == []

    def test_router_code_paths_import_only_router_modules(self):
        """Imports inside functions count too: a promotion that imported
        the standby module would load numpy on the recovery path."""
        packages = {"repro", "repro.common", "repro.serve"}
        allowed = set(ROUTER_MODULES) | packages | {
            "repro.common.atomicfile", "repro.common.lazy",
        }
        stray = []
        for module in ROUTER_MODULES[1:]:
            path = SRC / (module.replace(".", "/") + ".py")
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                    if node.module in packages:
                        names = [f"{node.module}.{alias.name}"
                                 for alias in node.names]
                else:
                    continue
                stray += [
                    f"{module}: {name}" for name in names
                    if name.startswith("repro") and name not in allowed
                ]
        assert stray == []

    def test_worker_loads_no_sweep_or_timing_code(self):
        loaded = _loaded_after(
            "from repro import cli\n"
            "cli._build_parser()\n"
            "import repro.serve.server"
        )
        banned = sorted(
            name for name in loaded
            if name in ("repro.pipeline.core", "repro.harness.experiments",
                        "repro.harness.resilient")
            or name.startswith("repro.eves")
        )
        assert banned == []

    def test_apply_imports_nothing_after_open(self):
        late = _python(
            "import json, sys\n"
            "import repro.serve.server\n"
            "from repro.serve.session import (\n"
            "    PredictorSession, execute_op, spec_from_name)\n"
            "session = PredictorSession(spec_from_name('composite', 256))\n"
            "before = set(sys.modules)\n"
            "events = [{'k': 's', 'pc': 16, 'addr': 4096, 'size': 8,\n"
            "           'value': 5},\n"
            "          {'k': 'l', 'pc': 32, 'addr': 4096, 'size': 8,\n"
            "           'value': 5, 'pred': True}] * 50\n"
            "assert execute_op(session, 'apply', {'events': events})[0] "
            "== 'ok'\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        assert late == []


    def test_durable_open_and_apply_load_no_sweep_stack(self, tmp_path):
        """A worker's first session builds its predictor without the
        sweep harness or the timing model."""
        loaded = _loaded_after(
            "from repro import cli\n"
            "cli._build_parser()\n"
            "from repro.serve.config import ServerConfig\n"
            "from repro.serve.server import PredictionServer\n"
            f"server = PredictionServer(ServerConfig(data_dir={str(tmp_path)!r}))\n"
            "server.recover()\n"
            "server.execute('open', {'session': 's', 'durable': True,\n"
            "                        'spec': {'kind': 'composite',\n"
            "                                 'entries': 256}})\n"
            "events = [{'k': 'l', 'pc': 32, 'addr': 4096, 'size': 8,\n"
            "           'value': 5, 'pred': True}] * 50\n"
            "server.execute('apply', {'session': 's', 'seq': 2,\n"
            "                         'events': events})"
        )
        assert sorted(loaded & {
            "repro.harness.runner", "repro.harness.resilient",
            "repro.harness.resultsdb", "repro.harness.functional_vec",
            "repro.pipeline.core", "repro.pipeline.frontend",
            "repro.memory.recording",
        }) == []
        assert "repro.composite.build" in loaded


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        missing = _python(
            "import importlib, json\n"
            f"module = importlib.import_module({package!r})\n"
            "listed = dir(module)\n"
            "print(json.dumps([name for name in module.__all__\n"
            "    if name not in listed or getattr(module, name) is None]))"
        )
        assert missing == []

    def test_from_import_and_submodule_attributes(self):
        same = _python(
            "import json\n"
            "import repro\n"
            "from repro.pipeline import simulate\n"
            "print(json.dumps([repro.pipeline.core.simulate is simulate,\n"
            "                  repro.simulate is simulate]))"
        )
        assert same == [True, True]

    def test_unknown_names_raise_attribute_error(self):
        import repro.pipeline

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.pipeline.no_such_name
        with pytest.raises(AttributeError):
            repro.pipeline._private
        with pytest.raises(ImportError):
            from repro.pipeline import no_such_name  # noqa: F401


SPEEDUP_SPEC = {
    "workload": "coremark", "length": 5000, "seed": 0,
    "predictor": {"kind": "component", "name": "lvp", "entries": 64},
}
FUNCTIONAL_SPEC = {
    "workload": "gcc2k", "length": 2000, "seed": 11,
    "predictor": {"kind": "composite", "entries": 256},
}

#: ``cell_fingerprint`` of the two cells above, computed before the
#: package exports became lazy; they change only with a semantics,
#: format or package version bump.
PINNED_FINGERPRINTS = [
    "0b57e28dd66e70e81553733dbb1f737aeaceb7798b0029de370f95cefc51c84b",
    "a686786f0d04b62d376b3ab82fa025f0111c84ccc9bd20b0a8f914a843885ebd",
]


class TestRegistriesIgnoreImportHistory:
    @pytest.mark.parametrize("first", ["", "import repro.cli\n"],
                             ids=["resultsdb-only", "after-cli"])
    def test_fingerprints_match_the_pins(self, first):
        got = _python(
            "import json\n" + first
            + "from repro.harness.resultsdb import cell_fingerprint\n"
            "print(json.dumps([\n"
            f"    cell_fingerprint('repro.harness.runner:run_speedup_cell',"
            f" {SPEEDUP_SPEC!r}),\n"
            f"    cell_fingerprint('repro.harness.runner:run_functional_cell',"
            f" {FUNCTIONAL_SPEC!r}),\n"
            "]))"
        )
        assert got == PINNED_FINGERPRINTS

    def test_prewarm_hooks_register_before_use(self):
        registered = _python(
            "import json\n"
            "from repro.harness import resilient\n"
            "fn = 'repro.harness.runner:run_speedup_cell'\n"
            "before = fn in resilient._PREWARM_HOOKS\n"
            "resilient._prewarm([resilient.Cell(id='c', fn=fn, spec={})])\n"
            "print(json.dumps([before, fn in resilient._PREWARM_HOOKS]))"
        )
        assert registered == [False, True]
