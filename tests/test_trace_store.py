"""Tests for the content-addressed on-disk trace store.

Covers the single-process contract (save/load round trip, key
versioning, corruption -> regenerate, env-var activation, scan/clear)
and the cross-process contract: a ``--workers N`` resilient sweep
populates the store once from the supervisor and every worker *hits*
it instead of regenerating.
"""

import json
import os

import pytest
from _ondisk import swap_sealed_header

from repro.harness import runner
from repro.harness.resilient import Cell, ExecutionPolicy, run_cells
from repro.workloads import store as trace_store
from repro.workloads.generator import (
    GENERATOR_VERSION,
    ensure_stored,
    generate_trace,
)
from repro.workloads.store import ENV_VAR, TraceStore

WORKLOAD = "mcf"
LENGTH = 1200
SEED = 5


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    """Point the ambient store at a per-test directory, reset handles."""
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "store"))
    runner.clear_caches()
    yield
    runner.clear_caches()


def _generate() -> None:
    runner.clear_caches()
    generate_trace(WORKLOAD, LENGTH, SEED)


class TestRoundTrip:
    def test_save_then_load_reproduces_trace(self):
        original = generate_trace(WORKLOAD, LENGTH, SEED)
        store = trace_store.active_store()
        assert store.stats.saves == 1
        loaded = store.load(WORKLOAD, LENGTH, SEED, GENERATOR_VERSION)
        assert loaded is not None
        assert loaded.name == original.name
        assert loaded.seed == original.seed
        assert loaded.metadata == original.metadata
        assert loaded.instructions == original.instructions
        assert (
            loaded.initial_memory.to_word_map()
            == original.initial_memory.to_word_map()
        )

    def test_loaded_trace_is_columnar_and_lazy(self):
        generate_trace(WORKLOAD, LENGTH, SEED)
        loaded = trace_store.active_store().load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        )
        assert loaded.columns is not None
        assert len(loaded) == LENGTH

    def test_second_process_like_access_hits(self):
        _generate()  # miss + save
        _generate()  # fresh handle and memo: must hit the disk entry
        store = trace_store.active_store()
        assert store.stats.hits == 1
        assert store.stats.misses == 0
        assert store.stats.saves == 0

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR)
        runner.clear_caches()
        assert trace_store.active_store() is None
        trace = generate_trace(WORKLOAD, LENGTH, SEED)
        assert trace.columns is not None  # still packed for the hot loop


class TestKeying:
    def test_generator_version_changes_key(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        a = store.entry_path(WORKLOAD, LENGTH, SEED, 1)
        b = store.entry_path(WORKLOAD, LENGTH, SEED, 2)
        assert a != b

    def test_identity_fields_change_key(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        base = store.entry_path(WORKLOAD, LENGTH, SEED, GENERATOR_VERSION)
        assert base != store.entry_path(
            WORKLOAD, LENGTH + 1, SEED, GENERATOR_VERSION
        )
        assert base != store.entry_path(
            WORKLOAD, LENGTH, SEED + 1, GENERATOR_VERSION
        )
        assert base != store.entry_path(
            "astar", LENGTH, SEED, GENERATOR_VERSION
        )

    def test_hostile_workload_name_sanitized(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        path = store.entry_path("../evil/name", LENGTH, SEED, 1)
        assert path.parent == store.root


class TestCorruption:
    def _entry_path(self):
        return trace_store.active_store().entry_path(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        )

    def test_truncated_entry_regenerates(self):
        _generate()
        path = self._entry_path()
        path.write_bytes(path.read_bytes()[:50])
        _generate()
        store = trace_store.active_store()
        assert store.stats.corrupt == 1
        assert store.stats.saves == 1  # repaired
        assert store.load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ) is not None

    def test_bit_flip_in_body_detected(self):
        _generate()
        path = self._entry_path()
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        loaded = trace_store.active_store().load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        )
        assert loaded is None
        assert trace_store.active_store().stats.corrupt == 1
        assert not path.exists()  # corrupt entries are evicted

    def test_garbage_file_counts_corrupt(self):
        _generate()
        path = self._entry_path()
        path.write_bytes(b"not a trace entry at all")
        assert trace_store.active_store().load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ) is None
        assert trace_store.active_store().stats.corrupt == 1

    def test_non_object_header_is_evicted(self):
        _generate()
        path = self._entry_path()
        path.write_bytes(swap_sealed_header(path.read_bytes(), b"[]"))
        assert trace_store.active_store().load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ) is None
        assert trace_store.active_store().stats.corrupt == 1
        assert not path.exists()


class TestMaintenance:
    def test_scan_reports_entries(self):
        _generate()
        stats = trace_store.active_store().scan()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["files"][0]["file"].endswith(".trc")

    def test_clear_removes_entries(self):
        _generate()
        store = trace_store.active_store()
        assert store.clear() == 1
        assert store.scan()["entries"] == 0

    def test_ensure_stored(self):
        assert ensure_stored(WORKLOAD, LENGTH, SEED)
        store = trace_store.active_store()
        assert store.entry_path(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ).exists()
        # Second call is a cheap existence check, no regeneration.
        runner.clear_caches()
        assert ensure_stored(WORKLOAD, LENGTH, SEED)
        assert trace_store.active_store().stats.saves == 0

    def test_ensure_stored_without_store(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR)
        runner.clear_caches()
        assert not ensure_stored(WORKLOAD, LENGTH, SEED)

    def test_ensure_stored_after_late_env_export(
        self, tmp_path, monkeypatch
    ):
        """The store must populate even when the trace was memoized
        before REPRO_TRACE_CACHE_DIR existed (a long-running server
        whose env var is exported after first use)."""
        monkeypatch.delenv(ENV_VAR)
        trace_store.reset_active_store()
        generate_trace(WORKLOAD, LENGTH, SEED)  # memoized, store-less

        late_root = tmp_path / "late-store"
        monkeypatch.setenv(ENV_VAR, str(late_root))
        # active_store resolves the env var at call time, so the new
        # handle appears without any cache reset...
        assert trace_store.active_store() is not None
        # ...and ensure_stored writes the entry despite the memo hit.
        assert ensure_stored(WORKLOAD, LENGTH, SEED)
        assert trace_store.active_store().entry_path(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ).exists()

    def test_cache_cli_resolves_env_at_call_time(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro-lvp cache --stats/--clear` read the env var when the
        command runs, not when the module was imported."""
        import json

        from repro.cli import main

        root = tmp_path / "cli-store"
        _generate()  # populates the fixture store, not `root`
        monkeypatch.setenv(ENV_VAR, str(root))
        root.mkdir()
        assert main(["cache", "--stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0
        runner.clear_caches()
        generate_trace(WORKLOAD, LENGTH, SEED)
        assert main(["cache", "--stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1
        assert main(["cache", "--clear"]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out


def _probe_cells(count: int) -> list[Cell]:
    return [
        Cell(
            id=f"probe/{i}",
            fn="_cells:trace_store_probe_cell",
            spec={"workload": WORKLOAD, "length": LENGTH, "seed": SEED},
        )
        for i in range(count)
    ]


class TestCrossProcessReuse:
    def test_pool_workers_hit_supervisor_prewarmed_store(self):
        # The supervisor populates the store once (the speedup-cell
        # pre-warm hook), then every pool worker loads packed columns
        # instead of regenerating.
        runner._prewarm_speedup_cells(
            [{"workload": WORKLOAD, "length": LENGTH, "seed": SEED}]
        )
        supervisor_store = trace_store.active_store()
        assert supervisor_store.stats.saves == 1

        report = run_cells(_probe_cells(3), ExecutionPolicy(workers=2))
        assert report.ok
        for outcome in report.outcomes.values():
            stats = outcome.value["store"]
            assert outcome.value["columnar"] is True
            assert stats["hits"] == 1
            assert stats["misses"] == 0
            assert stats["saves"] == 0
        # The store was populated exactly once, by the supervisor.
        assert supervisor_store.scan()["entries"] == 1

    def test_prewarm_hook_registered_for_speedup_cells(self):
        from repro.harness.resilient import _PREWARM_HOOKS

        assert runner.SPEEDUP_CELL_FN in _PREWARM_HOOKS

    def test_worker_regenerates_corrupted_entry(self):
        ensure_stored(WORKLOAD, LENGTH, SEED)
        store = trace_store.active_store()
        path = store.entry_path(WORKLOAD, LENGTH, SEED, GENERATOR_VERSION)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        report = run_cells(_probe_cells(1), ExecutionPolicy(workers=1))
        assert report.ok
        stats = report.outcomes["probe/0"].value["store"]
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        assert stats["saves"] == 1  # worker repaired the entry
        # The repaired entry is valid again.
        runner.clear_caches()
        assert trace_store.active_store().load(
            WORKLOAD, LENGTH, SEED, GENERATOR_VERSION
        ) is not None
