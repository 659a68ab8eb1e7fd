"""The crash-test campaign end to end, and its driver's kill accounting.

``run_crashtest`` is the durability acceptance gate: one campaign for
every shard count.  The two small campaigns here run it against a bare
server (``shards=1``: each kill SIGKILLs and restarts the one process)
and a two-shard tier (each kill SIGKILLs a worker shard, plus one live
migration).  The driver test pins its kill accounting with a fake
process whose worker kills always miss.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.crashtest import _drive, run_crashtest


@pytest.fixture
def trace_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))


def _assert_clean(report: dict, sessions: int) -> None:
    assert report["equivalent"] is True, report["mismatched_chunks"]
    assert report["lost_acks"] == 0
    assert report["mismatched_chunks"] == []
    assert report["kills_done"] == 1
    assert sorted(report["final_state"]) == [
        f"crash-{i:02d}" for i in range(sessions)
    ]
    assert report["final_state"] == report["reference_final_state"]


class TestCampaign:
    def test_bare_server(self, tmp_path, trace_store):
        report = run_crashtest(
            shards=1, sessions=2, kills=1, length=300,
            data_dir=str(tmp_path / "state"), timeout=120.0,
        )
        _assert_clean(report, sessions=2)
        assert report["router_kills"] == 0
        assert report["migrations"] == []
        # The bare server is the tier's one process: one entry per map.
        assert report["worker_restarts"] == {"shard-00": 1}
        (durability,) = report["durability"].values()
        assert durability["recovered_sessions"] >= 1

    def test_two_shard_tier(self, tmp_path, trace_store):
        report = run_crashtest(
            shards=2, sessions=2, kills=1, migrations=1, length=300,
            data_dir=str(tmp_path / "state"), timeout=120.0,
        )
        _assert_clean(report, sessions=2)
        assert report["router_kills"] == 0
        assert sorted(report["durability"]) == ["shard-00", "shard-01"]
        (migration,) = report["migrations"]
        assert migration.get("migrated") or migration.get("reason")


class _FakeClient:
    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        self.port = 0

    async def connect(self) -> None:
        pass

    async def apply(self, chunk: list[dict]) -> dict:
        await asyncio.sleep(0)
        return {"session": self.session_id, "applied": len(chunk)}


class _MissingWorkerProc:
    """A tier whose state file never names a live worker."""

    def __init__(self) -> None:
        self.kill_attempts = 0

    def kill_worker(self, shard: str) -> None:
        self.kill_attempts += 1
        return None


class TestDriveKillAccounting:
    def test_missed_worker_kill_is_not_counted(self):
        clients = [_FakeClient("crash-00"), _FakeClient("crash-01")]
        chunk_lists = [[[{"k": "i"}]] * 6 for _ in clients]
        proc = _MissingWorkerProc()
        notes: list[str] = []
        outcome = asyncio.run(_drive(
            clients, chunk_lists, kill_at={2, 4}, restart_at=set(),
            migrate_at=set(), victims=["shard-00"],
            migrate_target="shard-01", proc=proc, note=notes.append,
        ))
        assert proc.kill_attempts == 2
        assert outcome["kills_done"] == 0
        assert outcome["restarts"] == 0
        assert [len(acks) for acks in outcome["acked"]] == [6, 6]
        assert sum("missed" in note for note in notes) == 2
