"""Sharded tier: routing, failover, migration, fencing, restarts.

The cheap tests exercise the router's placement logic and the shard
manager's fencing without spawning any workers.  The slow end-to-end
scenario starts a real two-shard tier (each worker a ``repro-lvp
serve`` subprocess), drives durable sessions through the router, and
proves the tier's load-bearing promises in sequence: requests land on
the ring-designated worker, ``stats`` aggregates per-shard health, a
live migration moves a session's files between shards without losing
a request, a SIGKILLed worker is restarted and the client's retry
machinery rides through it, and a *new* router incarnation on the
same data dir fences leftovers and restores migration overrides from
the state file.  One scenario rather than five because worker startup
dominates the runtime.
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

from repro.serve.client import DurableClient, ServeClient, ServeError
from repro.serve.durability import session_dir_name
from repro.serve.router import RouterConfig, ShardRouter
from repro.serve.server import ServerConfig
from repro.serve.shardmgr import (
    STATE_FILE,
    ShardManager,
    read_state,
    shard_name,
)

SPEC = {"kind": "component", "name": "lvp", "entries": 64}


def _src_env() -> dict:
    """The environment with this checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


def run(coro):
    return asyncio.run(coro)


def _events(i: int) -> list[dict]:
    value = (i * 13) % 251
    return [
        {"k": "s", "pc": 0x10, "addr": 0x9000, "size": 8, "value": value},
        {"k": "l", "pc": 0x20, "addr": 0x9000, "size": 8, "value": value,
         "pred": True},
        {"k": "t", "n": 2},
    ]


def _session_on(router: ShardRouter, shard: str, avoid=()) -> str:
    """A session id the ring places on ``shard``."""
    for i in range(10_000):
        sid = f"sess-{i:04d}"
        if sid not in avoid and router.placement(sid) == shard:
            return sid
    raise AssertionError(f"no session id hashes to {shard}")


class TestPlacement:
    def test_placement_follows_ring_overrides_and_moving(self):
        router = ShardRouter(RouterConfig(shards=4))
        owner = router.ring.lookup("abc")
        assert router.placement("abc") == owner
        other = next(
            name for name in router.manager.shards if name != owner
        )
        router.overrides["abc"] = other
        assert router.placement("abc") == other
        from repro.serve.router import _MOVING
        router.overrides["abc"] = _MOVING
        assert router.placement("abc") is None


class TestFencing:
    def test_unrelated_pid_is_never_shot(self, tmp_path):
        """Fencing verifies /proc cmdline before SIGKILL, so a recycled
        pid belonging to some other process survives a tier restart."""
        bystander = subprocess.Popen([sys.executable, "-c",
                                      "import time; time.sleep(30)"])
        try:
            (tmp_path / STATE_FILE).write_text(json.dumps({
                "workers": {"shard-00": {"pid": bystander.pid}},
            }))
            manager = ShardManager(1, data_dir=tmp_path)
            assert manager.fence_stale_workers() == []
            assert bystander.poll() is None
        finally:
            bystander.kill()
            bystander.wait()

    def test_dead_and_garbage_pids_are_ignored(self, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        (tmp_path / STATE_FILE).write_text(json.dumps({
            "workers": {
                "shard-00": {"pid": probe.pid},
                "shard-01": {"pid": "not-a-pid"},
                "shard-02": {},
            },
        }))
        manager = ShardManager(3, data_dir=tmp_path)
        assert manager.fence_stale_workers() == []

    def test_corrupt_state_file_is_not_fatal(self, tmp_path):
        (tmp_path / STATE_FILE).write_text("{nope")
        manager = ShardManager(1, data_dir=tmp_path)
        assert manager.fence_stale_workers() == []

    def test_non_object_state_file_is_not_fatal(self, tmp_path):
        manager = ShardManager(1, data_dir=tmp_path)
        for payload in ("[]", '{"workers": [], "standbys": "x"}'):
            (tmp_path / STATE_FILE).write_text(payload)
            assert manager.fence_stale_workers() == []

    def test_state_file_round_trips_extra_keys(self, tmp_path):
        manager = ShardManager(2, data_dir=tmp_path)
        manager.extra["overrides"] = {"s": "shard-01"}
        manager.write_state(router_port=12345)
        state = read_state(tmp_path)
        assert state["router_port"] == 12345
        assert state["overrides"] == {"s": "shard-01"}
        assert sorted(state["workers"]) == [shard_name(0), shard_name(1)]


@pytest.mark.slow
class TestShardedTierEndToEnd:
    def test_route_stats_migrate_failover_restart(self, tmp_path):
        data = str(tmp_path / "tier")

        async def scenario():
            router = ShardRouter(RouterConfig(
                shards=2, data_dir=data, health_interval=0.1,
                ping_interval=0.0,
                worker=ServerConfig(fsync_interval=0.0, checkpoint_every=50),
            ))
            await router.start()
            clients = []
            try:
                sid_a = _session_on(router, shard_name(0))
                sid_b = _session_on(router, shard_name(1), avoid={sid_a})

                # --- Routing: each session lands on its ring owner.
                a = DurableClient("127.0.0.1", router.port, sid_a, SPEC,
                                  max_reconnects=200,
                                  reconnect_delay=0.1)
                b = DurableClient("127.0.0.1", router.port, sid_b, SPEC,
                                  max_reconnects=200,
                                  reconnect_delay=0.1)
                clients += [a, b]
                await a.connect()
                await b.connect()
                for i in range(3):
                    await a.apply(_events(i))
                    await b.apply(_events(i + 100))
                for shard, sid in ((shard_name(0), sid_a),
                                   (shard_name(1), sid_b)):
                    shard_dir = router.manager.shards[shard].data_dir
                    assert (shard_dir / "sessions"
                            / session_dir_name(sid)).is_dir()

                # --- Stats aggregation across the tier.
                stats = await router.stats()
                assert stats["sessions_active"] == 2
                assert all(entry["healthy"]
                           for entry in stats["shards"].values())
                assert stats["router_counters"]["forwarded"] > 0

                # --- Live migration: files move, requests keep landing.
                outcome = await router.migrate(sid_a, shard_name(1))
                assert outcome["migrated"] is True
                assert outcome["from"] == shard_name(0)
                assert router.placement(sid_a) == shard_name(1)
                target_dir = router.manager.shards[shard_name(1)].data_dir
                assert (target_dir / "sessions"
                        / session_dir_name(sid_a)).is_dir()
                # Override survives in the on-disk state file.
                assert read_state(data)["overrides"] == {
                    sid_a: shard_name(1)
                }
                after_migrate = await a.apply(_events(3))
                assert after_migrate["results"]
                assert a.next_seq == 6  # 1 open + 4 applies, none lost

                # --- Failover: SIGKILL the worker now holding both
                # sessions; the monitor restarts it and the durable
                # clients retry through "shard-unavailable".
                router.manager.kill(shard_name(1))
                recovered = await asyncio.gather(
                    a.apply(_events(4)), b.apply(_events(104))
                )
                assert all(r["results"] for r in recovered)
                assert a.reconnects + b.reconnects >= 1
                assert router.manager.shards[shard_name(1)].restarts >= 1
                assert router.counters.failovers >= 1
                final_a, final_b = a.next_seq - 1, b.next_seq - 1
            finally:
                for client in clients:
                    await client.close()
                await router.drain()

            # --- Cold restart of the whole tier on the same data dir:
            # overrides come back from router.json and both sessions
            # resume exactly where they stopped.
            router2 = ShardRouter(RouterConfig(
                shards=2, data_dir=data, health_interval=0.1,
                ping_interval=0.0, worker=ServerConfig(fsync_interval=0.0),
            ))
            await router2.start()
            try:
                assert router2.overrides == {sid_a: shard_name(1)}
                assert router2.recovery["overrides_restored"] == 1
                for sid, final in ((sid_a, final_a), (sid_b, final_b)):
                    client = DurableClient(
                        "127.0.0.1", router2.port, sid, SPEC,
                        max_reconnects=200, reconnect_delay=0.1,
                    )
                    opened = await client.connect()
                    assert opened["resumed"] is True
                    assert opened["applied_seq"] == final
                    await client.close()
            finally:
                await router2.drain()

        run(scenario())

    def test_orphan_workers_are_fenced_on_restart(self, tmp_path):
        """SIGKILL the router, leave its workers orphaned, and start a
        replacement tier immediately: the orphans must be gone (fenced
        or watchdog-exited) before the new workers touch the WALs."""
        data = str(tmp_path / "tier")
        env_script = (
            "import asyncio\n"
            "from repro.serve.router import RouterConfig, ShardRouter\n"
            "from repro.serve.server import ServerConfig\n"
            "async def main():\n"
            "    router = ShardRouter(RouterConfig(shards=2, data_dir=%r,"
            " worker=ServerConfig(fsync_interval=0.0)))\n"
            "    await router.start()\n"
            "    print('ready', flush=True)\n"
            "    await asyncio.sleep(60)\n"
            "asyncio.run(main())\n"
        ) % data
        first = subprocess.Popen(
            [sys.executable, "-c", env_script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=_src_env(), text=True,
        )
        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                line = first.stdout.readline()
                if line.startswith("ready"):
                    break
                assert line, "first tier died during startup"
            state = read_state(data)
            orphan_pids = [w["pid"] for w in state["workers"].values()]
            first.kill()
            first.wait()

            async def replacement():
                router = ShardRouter(RouterConfig(
                    shards=2, data_dir=data, ping_interval=0.0,
                    worker=ServerConfig(fsync_interval=0.0),
                ))
                await router.start()
                try:
                    assert (await router.stats())["sessions_active"] == 0
                finally:
                    await router.drain()

            run(replacement())
            # Every orphan is dead: fenced by the new tier or exited
            # via its --parent-pid watchdog, either way no split brain.
            for pid in orphan_pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                # Still-running pid must not be one of the old workers
                # (pid reuse); its cmdline must no longer name our dir.
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
                assert data.encode() not in cmdline
        finally:
            if first.poll() is None:
                first.kill()
                first.wait()

    def test_workers_run_the_serve_flags(self, tmp_path):
        """``serve --shards 1 --standbys 1`` (a one-shard tier) hands
        its server flags to its worker: with ``--seq-cache-size 1``, a
        replay of a seq the cache has evicted fails with
        ``seq-too-old`` instead of returning a cached response from a
        worker running the default 256-entry cache."""
        events = [{"k": "l", "pc": 0x40, "addr": 0x100, "size": 4,
                   "value": 3, "pred": True}]
        tier = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "1", "--standbys", "1",
             "--data-dir", str(tmp_path / "tier"),
             "--fsync-interval", "0", "--seq-cache-size", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=_src_env(), text=True,
        )
        try:
            line = tier.stdout.readline()
            assert line.startswith("serving on"), line
            port = int(line.rsplit(":", 1)[1])

            async def scenario():
                client = await ServeClient.connect("127.0.0.1", port)
                try:
                    opened = await client.request(
                        "open", session="s", spec=SPEC, durable=True
                    )
                    first = opened["applied_seq"] + 1
                    for seq in (first, first + 1):
                        await client.request(
                            "apply", session="s", seq=seq, events=events
                        )
                    with pytest.raises(ServeError) as excinfo:
                        await client.request(
                            "apply", session="s", seq=first, events=events
                        )
                    assert excinfo.value.code == "seq-too-old"
                finally:
                    await client.close()

            run(scenario())
            tier.send_signal(signal.SIGTERM)
            assert tier.wait(timeout=60) == 0
        finally:
            if tier.poll() is None:
                tier.kill()
                tier.wait()
