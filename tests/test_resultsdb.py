"""Tests for the content-addressed results database.

Covers the fingerprint contract (what changes a key and what must
not), the on-disk entry format (atomic writes, corruption -> evict and
recompute), the supervisor integration (DB hits reported as
``cached``, write-back on success, usage accounting), and the
cross-process acceptance scenario: a sweep killed mid-campaign is
repopulated by a *different* campaign, and a rerun of the killed one
serves every cell from the database without re-running any cell body.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import resilient, resultsdb
from repro.harness.resilient import Cell, ExecutionPolicy, RetryPolicy, run_cells
from repro.harness.resultsdb import (
    ResultsDb,
    cell_fingerprint,
    register_semantics,
)

REPO = Path(__file__).resolve().parent.parent

FAST_RETRY = RetryPolicy(max_retries=0, backoff=0.001)


def counting_cells(counter: Path, count: int = 3, prefix: str = "db") -> list[Cell]:
    return [
        Cell(
            id=f"{prefix}/{i}",
            fn="_cells:counting_cell",
            spec={"x": i, "counter_path": str(counter)},
        )
        for i in range(count)
    ]


def computations(counter: Path) -> int:
    """True number of cell-body executions, from the side-effect file."""
    return len(counter.read_text().splitlines()) if counter.exists() else 0


@pytest.fixture
def db(tmp_path, monkeypatch):
    """An activated results database in a fresh directory."""
    root = tmp_path / "resultsdb"
    monkeypatch.setenv(resultsdb.ENV_VAR, str(root))
    resultsdb.reset_active_db()
    yield resultsdb.active_db()
    resultsdb.reset_active_db()


class TestFingerprint:
    def test_deterministic_and_spec_sensitive(self):
        fp = cell_fingerprint("_cells:echo_cell", {"x": 1})
        assert fp == cell_fingerprint("_cells:echo_cell", {"x": 1})
        assert len(fp) == 64
        assert fp != cell_fingerprint("_cells:echo_cell", {"x": 2})
        assert fp != cell_fingerprint("_cells:boom_cell", {"x": 1})

    def test_key_order_is_canonical(self):
        assert cell_fingerprint("_cells:echo_cell", {"a": 1, "b": 2}) == \
            cell_fingerprint("_cells:echo_cell", {"b": 2, "a": 1})

    def test_dataclass_specs_canonicalize(self):
        from repro.composite.config import CompositeConfig

        config = CompositeConfig()
        spec = {"predictor": {"kind": "composite", "config": config}}
        assert cell_fingerprint("_cells:echo_cell", spec) == \
            cell_fingerprint("_cells:echo_cell", spec)

    def test_semantics_bump_changes_fingerprint(self):
        before = cell_fingerprint("_cells:echo_cell", {"x": 1})
        register_semantics("tests.fake_module", 1)
        try:
            bumped = cell_fingerprint("_cells:echo_cell", {"x": 1})
            assert bumped != before
            register_semantics("tests.fake_module", 2)
            assert cell_fingerprint("_cells:echo_cell", {"x": 1}) != bumped
        finally:
            resultsdb._SEMANTICS.pop("tests.fake_module", None)

    def test_cell_fn_module_semantics_are_registered_first(self):
        # Fingerprinting a runner cell from a fresh registry must first
        # import the runner (which registers the timing/functional/
        # generator versions), so readers and writers agree.
        from repro.harness.runner import SPEEDUP_CELL_FN

        cell_fingerprint(SPEEDUP_CELL_FN, {"x": 1})
        versions = resultsdb.semantics_versions()
        assert "repro.pipeline.core" in versions
        assert "repro.harness.functional" in versions
        assert "repro.workloads.generator" in versions


class TestResultsDbStorage:
    def test_roundtrip_and_stats(self, db):
        assert db.lookup("ab" * 32) == (False, None)
        assert db.store("ab" * 32, {"v": 1})
        hit, value = db.lookup("ab" * 32)
        assert hit and value == {"v": 1}
        assert db.stats.saves == 1
        assert db.stats.misses == 1
        assert db.stats.hits == 1
        assert db.stats.memo_hits == 1  # store memoizes

    def test_none_is_a_legal_value(self, db):
        db.store("cd" * 32, None)
        assert db.lookup("cd" * 32) == (True, None)

    def test_disk_hit_without_memo(self, db):
        db.store("ef" * 32, [1, 2, 3])
        fresh = ResultsDb(db.root)
        hit, value = fresh.lookup("ef" * 32)
        assert hit and value == [1, 2, 3]
        assert fresh.stats.memo_hits == 0

    @pytest.mark.parametrize("damage", [
        "garbage",
        "{}",
        json.dumps({"magic": "wrong", "format": 1}),
        json.dumps({"magic": "repro-resultsdb", "format": 99}),
        json.dumps({
            "magic": "repro-resultsdb", "format": 1,
            "fingerprint": "0" * 64, "value_sha256": "x", "value": 1,
        }),
    ])
    def test_corrupt_entry_evicted_and_missed(self, db, damage):
        fp = "12" * 32
        db.store(fp, {"v": 1})
        path = db.entry_path(fp)
        path.write_text(damage + "\n")
        fresh = ResultsDb(db.root)
        assert fresh.lookup(fp) == (False, None)
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # evicted: the next store repairs it

    def test_checksum_mismatch_is_corruption(self, db):
        fp = "34" * 32
        db.store(fp, {"v": 1})
        path = db.entry_path(fp)
        record = json.loads(path.read_text())
        record["value"] = {"v": 2}  # tampered value, stale checksum
        path.write_text(json.dumps(record))
        fresh = ResultsDb(db.root)
        assert fresh.lookup(fp) == (False, None)
        assert fresh.stats.corrupt == 1

    def test_store_failure_counts_not_raises(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("x")
        db = ResultsDb(blocked / "nested")  # parent is a file
        assert db.store("ab" * 32, {"v": 1}) is False
        assert db.stats.save_errors == 1

    def test_scan_and_clear(self, db):
        for i in range(3):
            db.store(f"{i}{i}" * 32, {"v": i})
        scan = db.scan()
        assert scan["entries"] == 3
        assert scan["total_bytes"] > 0
        assert db.clear() == 3
        assert db.scan()["entries"] == 0
        assert db.lookup("00" * 32) == (False, None)

    def test_active_db_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(resultsdb.ENV_VAR, raising=False)
        resultsdb.reset_active_db()
        assert resultsdb.active_db() is None
        monkeypatch.setenv(resultsdb.ENV_VAR, str(tmp_path / "a"))
        first = resultsdb.active_db()
        assert first is not None and first is resultsdb.active_db()
        monkeypatch.setenv(resultsdb.ENV_VAR, str(tmp_path / "b"))
        assert resultsdb.active_db() is not first


class TestSupervisorIntegration:
    def test_repeat_sweep_recomputes_nothing(self, db, tmp_path):
        counter = tmp_path / "count"
        cells = counting_cells(counter)
        first = run_cells(cells, ExecutionPolicy())
        assert first.ok
        assert computations(counter) == 3
        assert first.db_usage.as_dict() == {
            "lookups": 3, "hits": 0, "computed": 3,
            "stored": 3, "hit_rate": 0.0,
        }
        again = run_cells(cells, ExecutionPolicy())
        assert again.values() == first.values()
        assert computations(counter) == 3  # zero recomputed cells
        assert all(
            o.status == "cached" and o.source == "db"
            for o in again.outcomes.values()
        )
        assert again.db_usage.hit_rate == 1.0
        totals = resilient.db_usage_totals()
        assert totals.lookups == 6 and totals.hits == 3

    def test_no_db_means_no_usage(self, tmp_path, monkeypatch):
        monkeypatch.delenv(resultsdb.ENV_VAR, raising=False)
        resultsdb.reset_active_db()
        report = run_cells(
            counting_cells(tmp_path / "count"), ExecutionPolicy()
        )
        assert report.ok
        assert report.db_usage is None

    def test_pool_workers_share_the_db(self, db, tmp_path):
        counter = tmp_path / "count"
        cells = counting_cells(counter, prefix="pool")
        env_path = os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])
        os.environ["PYTHONPATH"] = env_path
        first = run_cells(cells, ExecutionPolicy(workers=1))
        assert first.ok
        assert computations(counter) == 3
        again = run_cells(cells, ExecutionPolicy(workers=1))
        assert again.ok
        assert computations(counter) == 3
        assert all(o.source == "db" for o in again.outcomes.values())

    def test_failed_cells_not_stored(self, db):
        cells = [Cell(id="bad", fn="_cells:boom_cell", spec={"x": 1})]
        report = run_cells(cells, ExecutionPolicy(retry=FAST_RETRY))
        assert not report.ok
        assert db.scan()["entries"] == 0
        again = run_cells(cells, ExecutionPolicy(retry=FAST_RETRY))
        assert not again.ok  # failure recomputed, never served

    def test_corrupt_entry_recomputed_via_sweep(self, db, tmp_path):
        counter = tmp_path / "count"
        cells = counting_cells(counter)
        run_cells(cells, ExecutionPolicy())
        victim = db.entry_path(
            cell_fingerprint(cells[1].fn, cells[1].spec)
        )
        victim.write_text("torn write\n")
        resultsdb.reset_active_db()  # fresh memo, like a new process
        report = run_cells(cells, ExecutionPolicy())
        assert report.ok
        assert computations(counter) == 4  # exactly the victim re-ran
        assert report.outcomes["db/1"].status == "ok"
        assert report.outcomes["db/0"].status == "cached"
        db2 = resultsdb.active_db()
        assert db2.stats.corrupt == 1
        assert victim.exists()  # write-back repaired the entry


CAMPAIGN_SCRIPT = """\
import json, sys
from repro.harness import resilient

counter, prefix = sys.argv[1], sys.argv[2]
cells = [
    resilient.Cell(
        id=f"{prefix}/{i}", fn="_cells:counting_cell",
        spec={"x": i, "counter_path": counter},
    )
    for i in range(5)
]
policy = resilient.ExecutionPolicy(
    retry=resilient.RetryPolicy(max_retries=0, backoff=0.001),
)
report = resilient.run_cells(cells, policy)
print(json.dumps({
    "values": report.values(),
    "statuses": {k: o.status for k, o in report.outcomes.items()},
    "sources": {k: o.source for k, o in report.outcomes.items()},
    "db": report.db_usage.as_dict() if report.db_usage else None,
}, sort_keys=True))
"""


def _run_campaign(tmp_path, db_root, counter, prefix="xp", fault=None):
    env = dict(os.environ)
    env.pop(resilient.FAULT_PLAN_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]
    )
    env[resultsdb.ENV_VAR] = str(db_root)
    if fault:
        env[resilient.FAULT_PLAN_ENV] = fault
    script = tmp_path / "campaign.py"
    script.write_text(CAMPAIGN_SCRIPT)
    return subprocess.run(
        [sys.executable, str(script), str(counter), prefix],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestCrossProcessReuse:
    """The acceptance scenario: kill, repopulate elsewhere, rerun."""

    def test_kill_repopulate_resume_never_recomputes(self, tmp_path):
        db_root = tmp_path / "resultsdb"
        counter = tmp_path / "count"

        # Process 1: killed mid-campaign (cells xp/0, xp/1 complete).
        crashed = _run_campaign(
            tmp_path, db_root, counter, fault="xp/2:crash:99"
        )
        assert crashed.returncode == 70, crashed.stderr
        killed_at = len(counter.read_text().splitlines())
        assert 0 < killed_at < 5

        # Process 2: a different campaign (other cell ids, same work)
        # computes the full set -- the survivors come from the DB, the
        # rest run.
        other = _run_campaign(tmp_path, db_root, counter, prefix="other")
        assert other.returncode == 0, other.stderr
        assert len(counter.read_text().splitlines()) == 5

        # Process 3: rerun the killed campaign.  The DB serves every
        # cell; no cell body runs anywhere.
        rerun = _run_campaign(tmp_path, db_root, counter)
        assert rerun.returncode == 0, rerun.stderr
        assert len(counter.read_text().splitlines()) == 5
        out = json.loads(rerun.stdout)
        assert all(s == "cached" for s in out["statuses"].values())
        assert set(out["sources"].values()) == {"db"}
        assert out["db"]["computed"] == 0

        # Byte-identical to an uninterrupted clean run (fresh DB and
        # counter so nothing is shared).
        clean = _run_campaign(
            tmp_path, tmp_path / "clean-db", tmp_path / "clean-count",
        )
        assert clean.returncode == 0, clean.stderr
        assert json.dumps(out["values"], sort_keys=True) == \
            json.dumps(json.loads(clean.stdout)["values"], sort_keys=True)

    def test_deliberate_corruption_recovers_cross_process(self, tmp_path):
        db_root = tmp_path / "resultsdb"
        counter = tmp_path / "count"
        first = _run_campaign(tmp_path, db_root, counter)
        assert first.returncode == 0, first.stderr
        entries = sorted(db_root.glob("??/*.res"))
        assert len(entries) == 5
        entries[0].write_text("definitely not json {{{\n")

        again = _run_campaign(tmp_path, db_root, counter)
        assert again.returncode == 0, again.stderr
        out = json.loads(again.stdout)
        assert out["db"]["computed"] == 1  # only the corrupted entry
        assert len(counter.read_text().splitlines()) == 6
        assert json.loads(first.stdout)["values"] == out["values"]
