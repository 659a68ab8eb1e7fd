"""Server behaviour tests: RPCs, batching, backpressure, drain, SIGTERM.

The acceptance-critical contracts live here: a burst above the queue
bound receives explicit ``backpressure`` responses (no silent drops),
and a SIGTERM during load finishes every in-flight request before the
process exits (tested both in-process via ``drain()`` and end-to-end
against a real ``repro-lvp serve`` subprocess).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import (
    MAX_EVENTS_PER_REQUEST,
    PredictionServer,
    ServerConfig,
)

REPO = Path(__file__).resolve().parent.parent


def run(coro):
    return asyncio.run(coro)


async def _start_server(**overrides) -> PredictionServer:
    server = PredictionServer(ServerConfig(**overrides))
    await server.start()
    return server


class TestRpcs:
    def test_full_rpc_lifecycle(self):
        async def scenario():
            server = await _start_server()
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    assert (await client.ping())["pong"]
                    opened = await client.open_session(
                        "s1", {"kind": "component", "name": "lvp",
                               "entries": 64},
                    )
                    assert opened["session"] == "s1"
                    assert opened["storage_bits"] > 0
                    applied = await client.apply("s1", [
                        {"k": "s", "pc": 1, "addr": 0x2000, "size": 8,
                         "value": 5},
                        {"k": "l", "pc": 2, "addr": 0x2000, "size": 8,
                         "value": 5, "pred": True},
                        {"k": "t", "n": 10},
                    ])
                    assert len(applied["results"]) == 3
                    assert applied["results"][1] is not None
                    prediction = await client.predict("s1", 0x40)
                    assert "prediction" in prediction
                    trained = await client.train("s1", 0x2000, 8, 5)
                    assert "trained" in trained
                    stats = await client.stats()
                    assert stats["sessions"]["active"] == 1
                    assert stats["counters"]["responses_ok"] >= 5
                    closed = await client.close_session("s1")
                    assert closed["closed"]["loads"] == 2
            finally:
                await server.drain()
        run(scenario())

    def test_session_errors_are_structured_responses(self):
        async def scenario():
            server = await _start_server()
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    with pytest.raises(ServeError) as excinfo:
                        await client.apply("ghost", [])
                    assert excinfo.value.code == "unknown-session"
                    with pytest.raises(ServeError) as excinfo:
                        await client.open_session(
                            "s1", {"kind": "mystery"}
                        )
                    assert excinfo.value.code == "bad-spec"
                    await client.open_session("s1", None)
                    with pytest.raises(ServeError) as excinfo:
                        await client.apply("s1", [
                            {"k": "t", "n": 1}, {"k": "zzz"},
                        ])
                    assert excinfo.value.code == "bad-event"
                    assert "event 1" in excinfo.value.message
                    # The server survived every one of those.
                    assert (await client.ping())["pong"]
                    assert server.counters.internal_errors == 0
            finally:
                await server.drain()
        run(scenario())

    def test_apply_event_cap_enforced(self):
        async def scenario():
            server = await _start_server()
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    await client.open_session("s1", None)
                    events = [{"k": "t", "n": 1}] * (
                        MAX_EVENTS_PER_REQUEST + 1
                    )
                    with pytest.raises(ServeError, match="limit"):
                        await client.apply("s1", events)
            finally:
                await server.drain()
        run(scenario())

    def test_lru_eviction_visible_in_stats(self):
        async def scenario():
            server = await _start_server(max_sessions=2)
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for sid in ("a", "b", "c"):
                        await client.open_session(sid, None)
                    stats = await client.stats()
                    assert stats["sessions"]["active"] == 2
                    assert stats["sessions"]["evictions"] == 1
                    with pytest.raises(ServeError) as excinfo:
                        await client.apply("a", [])
                    assert excinfo.value.code == "unknown-session"
            finally:
                await server.drain()
        run(scenario())

    def test_request_timeout_answers_stale_requests(self):
        async def scenario():
            server = await _start_server(request_timeout=0.001)
            try:
                # Stall the scheduler so queued requests go stale.
                server._scheduler.cancel()
                try:
                    await server._scheduler
                except asyncio.CancelledError:
                    pass
                client = await ServeClient.connect("127.0.0.1", server.port)
                future = await client.submit("ping")
                await asyncio.sleep(0.05)
                server._scheduler = asyncio.create_task(
                    server._run_scheduler()
                )
                with pytest.raises(ServeError) as excinfo:
                    await asyncio.wait_for(future, timeout=5.0)
                assert excinfo.value.code == "timeout"
                assert server.counters.timeouts == 1
                await client.close()
            finally:
                await server.drain()
        run(scenario())


class TestBatching:
    def test_concurrent_requests_coalesce_into_batches(self):
        async def scenario():
            server = await _start_server(max_batch=64)
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                await client.open_session("s1", None)
                futures = [
                    await client.submit("ping") for _ in range(32)
                ]
                await asyncio.gather(*futures)
                assert server.counters.max_batch_seen > 1
                await client.close()
            finally:
                await server.drain()
        run(scenario())

    def test_unbatched_mode_processes_one_per_tick(self):
        async def scenario():
            server = await _start_server(max_batch=1)
            try:
                client = await ServeClient.connect("127.0.0.1", server.port)
                futures = [
                    await client.submit("ping") for _ in range(16)
                ]
                await asyncio.gather(*futures)
                assert server.counters.max_batch_seen == 1
                assert server.counters.batches >= 16
                await client.close()
            finally:
                await server.drain()
        run(scenario())


class TestBackpressure:
    def test_burst_above_queue_bound_gets_explicit_backpressure(self):
        async def scenario():
            server = await _start_server(max_queue=4, max_batch=4)
            try:
                # Stall the scheduler so the queue genuinely fills.
                server._scheduler.cancel()
                try:
                    await server._scheduler
                except asyncio.CancelledError:
                    pass
                client = await ServeClient.connect("127.0.0.1", server.port)
                burst = 12
                futures = [
                    await client.submit("ping") for _ in range(burst)
                ]
                # Every response arrives even with the scheduler down:
                # overflow is answered inline by the read loop.
                await asyncio.sleep(0.1)
                rejected = [
                    f for f in futures
                    if f.done() and isinstance(f.exception(), ServeError)
                ]
                assert len(rejected) == burst - 4
                for future in rejected:
                    assert future.exception().code == "backpressure"
                    assert "retry" in future.exception().message
                assert server.counters.backpressure == burst - 4
                # Nothing was silently dropped: accepted + rejected
                # accounts for the whole burst.
                assert server._queue.qsize() == 4
                # Restart the scheduler; the accepted four complete.
                server._scheduler = asyncio.create_task(
                    server._run_scheduler()
                )
                settled = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                assert sum(
                    1 for r in settled if isinstance(r, dict)
                ) == 4
                await client.close()
            finally:
                await server.drain()
        run(scenario())


class TestDrain:
    def test_drain_finishes_queued_requests_then_rejects_new_ones(self):
        async def scenario():
            server = await _start_server()
            client = await ServeClient.connect("127.0.0.1", server.port)
            await client.open_session("s1", None)
            futures = [
                await client.submit(
                    "apply", session="s1",
                    events=[{"k": "t", "n": 100}] * 50,
                )
                for _ in range(8)
            ]
            # Wait until the server has accepted the whole burst (the
            # open + 8 applies), so the drain genuinely races work.
            while server.counters.requests < 9:
                await asyncio.sleep(0.005)
            drain_task = asyncio.create_task(server.drain())
            # Every accepted in-flight request completes during drain.
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, dict) for r in results), results
            await drain_task
            assert server._queue.qsize() == 0
            assert server.counters.dropped_responses == 0
            await client.close()
        run(scenario())

    def test_requests_during_drain_get_shutting_down_responses(self):
        async def scenario():
            server = await _start_server()
            client = await ServeClient.connect("127.0.0.1", server.port)
            assert (await client.ping())["pong"]
            # Drain has begun but this connection is still being read:
            # new requests are answered with an explicit refusal.
            server._draining = True
            with pytest.raises(ServeError) as excinfo:
                await client.ping()
            assert excinfo.value.code == "shutting-down"
            await client.close()
            await server.drain()
        run(scenario())


def _wait_for_port(stdout) -> int:
    line = stdout.readline()
    assert line.startswith("serving on"), line
    return int(line.strip().rsplit(":", 1)[1])


@pytest.mark.slow
class TestSigtermEndToEnd:
    def test_sigterm_under_load_finishes_in_flight_requests(self, tmp_path):
        """`repro-lvp serve` + SIGTERM mid-burst == graceful drain."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            port = _wait_for_port(proc.stdout)

            async def burst():
                client = await ServeClient.connect("127.0.0.1", port)
                await client.open_session("s1", None)
                futures = [
                    await client.submit(
                        "apply", session="s1",
                        events=[{"k": "t", "n": 50}] * 40,
                    )
                    for _ in range(20)
                ]
                # SIGTERM while those requests are in flight.
                proc.send_signal(signal.SIGTERM)
                results = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                await client.close()
                return results

            results = run(burst())
            answered = sum(1 for r in results if isinstance(r, dict))
            assert answered > 0, results
            # Every non-answered request got an explicit shutting-down
            # response or a clean connection close -- never silence
            # with the process still alive.
            for r in results:
                assert isinstance(r, (dict, ServeError, ConnectionError))
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            stats = json.loads(out)
            assert stats["counters"]["responses_ok"] >= answered
            assert stats["draining"] is True
            assert "drained cleanly" in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
