"""Durable serving over the wire: seq contract, spill, crash recovery.

In-process servers cover the exactly-once wire contract (duplicate and
gapped ``seq``), transparent spill/recovery of evicted durable
sessions, the stats RPC's durability block, and the client's
dead-connection handling; the slow end-to-end test SIGKILLs a real
``repro-lvp serve`` subprocess mid-load and proves zero
acknowledged-event loss (the ``crashtest`` harness).
"""

import asyncio

import pytest

from repro.serve.client import DurableClient, ServeClient, ServeError
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import PredictorSession, SessionManager, apply_events

SPEC = {"kind": "component", "name": "lvp", "entries": 64}


def run(coro):
    return asyncio.run(coro)


async def _start_server(tmp_path=None, **overrides) -> PredictionServer:
    if tmp_path is not None:
        overrides.setdefault("data_dir", str(tmp_path / "state"))
        overrides.setdefault("fsync_interval", 0.0)
    server = PredictionServer(ServerConfig(**overrides))
    await server.start()
    return server


def _events(i: int) -> list[dict]:
    value = (i * 13) % 251
    return [
        {"k": "s", "pc": 0x10, "addr": 0x9000, "size": 8, "value": value},
        {"k": "l", "pc": 0x20, "addr": 0x9000, "size": 8, "value": value,
         "pred": True},
        {"k": "t", "n": 2},
    ]


class TestSeqContractOverTheWire:
    def test_duplicate_seq_returns_the_cached_response(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    opened = await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    assert opened["durable"] is True
                    assert opened["applied_seq"] == 1
                    first = await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    replay = await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    assert replay == first
                    # Only one execution happened.
                    session = server.sessions.get("d1")
                    assert session.loads == 1
            finally:
                await server.drain()
        run(scenario())

    def test_gap_missing_and_bad_seq_are_structured_errors(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", seq=5, events=[]
                        )
                    assert excinfo.value.code == "seq-gap"
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", events=[]
                        )
                    assert excinfo.value.code == "seq-required"
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", seq=0, events=[]
                        )
                    assert excinfo.value.code == "bad-seq"
                    # None of those perturbed the session's seq state.
                    assert server.sessions.get(
                        "d1"
                    ).tracker.applied_seq == 1
            finally:
                await server.drain()
        run(scenario())

    def test_error_responses_are_replayed_verbatim(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    bad = [{"k": "t", "n": 1}, {"k": "zzz"}]
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", seq=2, events=bad
                        )
                    original = excinfo.value
                    assert original.code == "bad-event"
                    # The retry gets the same semantic error, consuming
                    # the seq exactly once.
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", seq=2, events=bad
                        )
                    assert excinfo.value.code == original.code
                    assert excinfo.value.message == original.message
                    await client.request(
                        "apply", session="d1", seq=3, events=_events(1)
                    )
            finally:
                await server.drain()
        run(scenario())

    def test_in_memory_sessions_share_the_dedup_contract(self):
        async def scenario():
            server = await _start_server()  # no data_dir at all
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "open", session="m1", spec=SPEC, durable=True
                        )
                    assert excinfo.value.code == "durability-disabled"
                    await client.request("open", session="m1", spec=SPEC)
                    first = await client.request(
                        "apply", session="m1", seq=1, events=_events(0)
                    )
                    assert await client.request(
                        "apply", session="m1", seq=1, events=_events(0)
                    ) == first
                    assert server.sessions.get("m1").loads == 1
            finally:
                await server.drain()
        run(scenario())

    def test_resume_open_reports_applied_seq(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    for seq in (2, 3, 4):
                        await client.request(
                            "apply", session="d1", seq=seq,
                            events=_events(seq),
                        )
                    again = await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    assert again["resumed"] is True
                    assert again["applied_seq"] == 4
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "open", session="d1",
                            spec={"kind": "component", "name": "sap",
                                  "entries": 64},
                            durable=True,
                        )
                    assert excinfo.value.code == "spec-mismatch"
            finally:
                await server.drain()
        run(scenario())


class TestEvictionSpill:
    def test_evicted_durable_session_spills_and_recovers(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path, max_sessions=2)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    first = await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    # Two more sessions push d1 out of the LRU budget.
                    for sid in ("d2", "d3"):
                        await client.request(
                            "open", session=sid, spec=SPEC, durable=True
                        )
                    stats = await client.request("stats")
                    assert stats["durability"]["spills"] >= 1
                    assert "d1" not in server.sessions
                    # A spilled durable session recovers transparently:
                    # the replay cache still answers the old seq and
                    # new seqs keep advancing the recovered state.
                    replay = await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    assert replay == first
                    await client.request(
                        "apply", session="d1", seq=3, events=_events(1)
                    )
                    reference = PredictorSession(SPEC, session_id="d1")
                    apply_events(reference, _events(0))
                    apply_events(reference, _events(1))
                    assert server.sessions.get(
                        "d1"
                    ).snapshot() == reference.snapshot()
                    stats = await client.request("stats")
                    assert stats["durability"]["recovered_sessions"] >= 1
            finally:
                await server.drain()
        run(scenario())


class TestStatsFields:
    def test_durability_block_reports_activity(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path, checkpoint_every=1)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    stats = await client.request("stats")
                    durability = stats["durability"]
                    assert durability["durable_opens"] == 1
                    assert durability["wal_appends"] >= 2
                    assert durability["wal_bytes"] > 0
                    assert durability["checkpoint_count"] >= 1
                    assert durability["recovered_sessions"] == 0
                    assert stats["sessions"]["durable_active"] == 1
                    assert stats["config"]["data_dir"] is not None
            finally:
                await server.drain()
        run(scenario())

    def test_plain_servers_have_no_durability_block(self):
        async def scenario():
            server = await _start_server()
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    stats = await client.request("stats")
                    assert "durability" not in stats
                    assert stats["config"]["data_dir"] is None
            finally:
                await server.drain()
        run(scenario())


class TestByteAccounting:
    def test_closing_sessions_returns_their_bytes(self):
        """Closing any session releases its tracked bytes (durable or
        not) -- the budget cannot leak under open/close churn."""
        manager = SessionManager(max_sessions=8)
        for sid in ("a", "b"):
            session = manager.open(sid, SPEC)
            apply_events(session, [
                {"k": "s", "pc": 1, "addr": 0x1000 + i * 8, "size": 8,
                 "value": i}
                for i in range(64)
            ])
            manager.touch_bytes(session)
        assert manager.total_bytes() > 0
        manager.close("a")
        manager.close("b")
        assert manager.total_bytes() == 0


class TestDeadConnections:
    def test_submit_after_connection_loss_raises_not_hangs(self):
        """Regression: when the server's final response and its EOF
        land in the same window with nothing in flight, the read loop
        exits with no pending future to fail -- a later submit must
        raise immediately instead of awaiting a response forever."""
        async def scenario():
            server = await _start_server()
            client = await ServeClient.connect("127.0.0.1", server.port)
            assert (await client.ping())["pong"]
            await server.drain()  # closes the connection server-side
            for _ in range(200):
                if client._conn_lost is not None:
                    break
                await asyncio.sleep(0.005)
            assert client._conn_lost is not None
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.request("ping"), timeout=5.0)
            await client.close()
        run(scenario())

    def test_durable_client_reconnects_through_connection_loss(
        self, tmp_path
    ):
        async def scenario():
            server = await _start_server(tmp_path)
            client = DurableClient("127.0.0.1", server.port, "d1", SPEC)
            try:
                await client.connect()
                first = await client.apply(_events(0))
                # Sever the connection server-side; the next call must
                # reconnect, resume, and retry under the same seq.
                for conn in list(server._conns):
                    conn.writer.close()
                second = await client.apply(_events(1))
                assert client.reconnects >= 1
                assert client.resumed is True
                reference = PredictorSession(SPEC, session_id="d1")
                apply_events(reference, _events(0))
                apply_events(reference, _events(1))
                assert server.sessions.get(
                    "d1"
                ).snapshot() == reference.snapshot()
                assert first["results"][1] is not None
                assert second["results"][1] is not None
            finally:
                await client.close()
                await server.drain()
        run(scenario())


class TestTombstoneOverTheWire:
    def test_close_retry_and_reopen_refusal(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.request(
                        "open", session="d1", spec=SPEC, durable=True
                    )
                    await client.request(
                        "apply", session="d1", seq=2, events=_events(0)
                    )
                    closed = await client.request(
                        "close", session="d1", seq=3
                    )
                    assert closed["closed"]["loads"] == 1
                    # Retrying the close hits the tombstone, even
                    # though the session itself is gone.
                    assert await client.request(
                        "close", session="d1", seq=3
                    ) == closed
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "open", session="d1", spec=SPEC, durable=True
                        )
                    assert excinfo.value.code == "session-closed"
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="d1", seq=4, events=[]
                        )
                    assert excinfo.value.code == "session-closed"
            finally:
                await server.drain()
        run(scenario())


@pytest.mark.slow
class TestKillNineEndToEnd:
    def test_crashtest_campaign_is_equivalent(self, tmp_path):
        """`repro-lvp serve` + SIGKILL mid-request == zero acked loss."""
        from repro.serve.crashtest import run_crashtest

        report = run_crashtest(
            workload="gcc2k", length=1500, kills=2,
            events_per_request=64,
            data_dir=str(tmp_path / "state"),
            timeout=120.0,
        )
        assert report["kills_done"] == 2
        assert report["lost_acks"] == 0
        assert report["mismatched_chunks"] == []
        assert report["final_state_match"] is True
        assert report["equivalent"] is True
        (durability,) = report["durability"].values()  # the one server
        assert durability["recovered_sessions"] >= 1
