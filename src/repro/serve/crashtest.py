"""Crash-test harness: SIGKILL the serving tier mid-load, prove nothing lost.

The acceptance gate for the durability subsystem (``repro-lvp
crashtest``).  One campaign (:func:`run_crashtest`):

1. computes a **reference** per session: the same event chunks applied
   to a local :class:`~repro.serve.session.PredictorSession` through
   :func:`~repro.serve.session.execute_op`, the executor the server
   runs, so reference and server share code paths;
2. starts ``repro-lvp serve --shards N --data-dir ...`` as a real
   subprocess -- one bare server at ``N == 1``, the router plus N
   worker shards above -- and drives ``sessions`` durable sessions
   through every chunk in lockstep, one
   :class:`~repro.serve.client.DurableClient` each;
3. at ``kills`` evenly spaced points it SIGKILLs a process **while
   requests are in flight**.  At one shard that is the server itself,
   restarted on the same data dir; above one shard it is a whole
   worker shard, chosen by the router's own consistent-hash ring so
   every kill lands on a shard that owns live sessions.
   ``kill_router`` also SIGKILLs and restarts the router once (the
   restarted router must fence the orphaned workers), and a live
   ``migrate`` runs under load when there is a second shard to move
   to.  After a restart every client is repointed and the idempotent
   retry machinery resumes -- a retried seq must return the request's
   one true response whether or not the killed process had applied it;
4. asserts *zero acknowledged-event loss*: every acknowledged response
   is record-by-record identical to its reference, and every session's
   final ``close`` snapshot (counters, accuracy, pending depth) is
   bit-exact against its uninterrupted reference run.

Any divergence is reported per session and chunk in the result dict;
``equivalent`` is the overall verdict the CLI turns into exit code 3.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.serve.client import DurableClient, ServeClient
from repro.serve.loadgen import trace_to_events
from repro.serve.session import (
    PredictorSession,
    _resolve_initial_memory,
    execute_op,
    spec_from_name,
)
from repro.serve.shardmgr import (
    ShardError,
    read_state,
    shard_name,
    wait_for_serving,
)

#: Seconds to wait per shard for a (re)started process to print its port.
SERVER_START_TIMEOUT = 30.0


class CrashTestError(RuntimeError):
    """The harness itself failed (server would not start, etc.)."""


class _TierProc:
    """One ``repro-lvp serve --shards N`` subprocess under harness
    control: a bare server at ``N == 1``, the sharded tier's router
    above.  SIGKILLing a router leaves its workers behind as orphans
    on purpose -- the restarted router must fence them.
    """

    def __init__(self, data_dir: str, shards: int, fsync_interval: float,
                 checkpoint_every: int, standbys: int = 0,
                 health_interval: float | None = None,
                 health_backoff_max: float | None = None) -> None:
        self.data_dir = data_dir
        self.shards = shards
        self.fsync_interval = fsync_interval
        self.checkpoint_every = checkpoint_every
        self.standbys = standbys
        self.health_interval = health_interval
        self.health_backoff_max = health_backoff_max
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> int:
        """Launch the process; returns the bound (ephemeral) port."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--shards", str(self.shards),
            "--data-dir", self.data_dir,
            "--fsync-interval", str(self.fsync_interval),
            "--checkpoint-every", str(self.checkpoint_every),
        ]
        if self.standbys:
            command += ["--standbys", str(self.standbys)]
        if self.health_interval is not None:
            command += ["--health-interval", str(self.health_interval)]
        if self.health_backoff_max is not None:
            command += [
                "--health-backoff-max", str(self.health_backoff_max)
            ]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            ports = wait_for_serving(
                {"server": self.proc}, SERVER_START_TIMEOUT * self.shards
            )
        except ShardError as exc:
            raise CrashTestError(str(exc)) from exc
        self.port = ports["server"]
        return self.port

    def kill(self) -> None:
        """SIGKILL the top-level process: no drain, no atexit, no
        flush -- a real crash."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def terminate(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def kill_worker(self, shard: str) -> int | None:
        """SIGKILL one worker shard by name; returns the pid shot, or
        None when the tier's state file names no live worker for it.

        The pid comes from the tier's state file (rewritten by the
        router after every spawn) and is verified against ``/proc``
        before firing, the same fencing discipline the router itself
        uses -- a recycled pid is never killed.
        """
        state = read_state(self.data_dir) or {}
        info = (state.get("workers") or {}).get(shard) or {}
        pid = info.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return None
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            return None
        if self.data_dir not in cmdline.decode("utf-8", "replace"):
            return None
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        return pid


def _reference_run(
    spec: dict | None,
    workload_desc: dict,
    chunks: list[list[dict]],
    session_id: str,
) -> tuple[list[dict], dict]:
    """The uninterrupted ground truth: results per chunk + final state."""
    session = PredictorSession(
        spec,
        session_id=session_id,
        initial_memory=_resolve_initial_memory(workload_desc),
    )
    # The server's own executor; an ("error", ...) entry's code lands
    # where the result would and shows up as a chunk mismatch.
    results = [
        execute_op(session, "apply", {"events": chunk})[1]
        for chunk in chunks
    ]
    return results, session.snapshot()


async def _drive(
    clients: list[DurableClient],
    chunk_lists: list[list[list[dict]]],
    kill_at: set[int],
    restart_at: set[int],
    migrate_at: set[int],
    victims: list[str],
    migrate_target: str,
    proc: _TierProc,
    note: Callable[[str], None],
) -> dict:
    """Drive every session in chunk lockstep, injecting chaos.

    At a ``restart_at`` chunk the top-level process is SIGKILLed and
    restarted, and every client repointed; at a ``kill_at`` chunk one
    worker shard (rotating over ``victims``) is SIGKILLed.  Requests
    are launched *before* each injection so every kill lands with
    frames in flight; the retried seqs must resolve each one
    exactly-once.
    """
    for client in clients:
        await client.connect()
    acked: list[list[dict]] = [[] for _ in clients]
    kills_done = 0
    restarts = 0
    migrations: list[asyncio.Task] = []
    victim_iter = itertools.cycle(victims)
    loop = asyncio.get_running_loop()
    total = max(len(chunks) for chunks in chunk_lists)
    for index in range(total):
        tasks = {
            i: asyncio.create_task(clients[i].apply(chunk_lists[i][index]))
            for i in range(len(clients))
            if index < len(chunk_lists[i])
        }
        await asyncio.sleep(0)  # let the frames reach the wire
        if index in restart_at:
            proc.kill()
            restarts += 1
            port = await loop.run_in_executor(None, proc.start)
            for client in clients:
                client.port = port
            note(
                f"restart {restarts}: SIGKILL at chunk {index}, "
                f"restarted on port {port}"
            )
        elif index in kill_at:
            victim = next(victim_iter)
            pid = proc.kill_worker(victim)
            if pid is None:
                note(
                    f"worker kill at chunk {index} missed: no live "
                    f"pid recorded for {victim}"
                )
            else:
                kills_done += 1
                note(
                    f"kill {kills_done}: SIGKILL worker {victim} "
                    f"(pid {pid}) at chunk {index}"
                )
        if index in migrate_at:
            migrations.append(asyncio.create_task(_migrate(
                proc, clients[0].session_id, migrate_target, note
            )))
        for i, task in tasks.items():
            acked[i].append(await task)
    migrated = [await task for task in migrations]
    return {
        "acked": acked,
        "kills_done": kills_done,
        "restarts": restarts,
        "migrations": migrated,
    }


async def _migrate(
    proc: _TierProc, session_id: str, target: str,
    note: Callable[[str], None],
) -> dict:
    """One live ``migrate`` request, retried across router restarts."""
    last: dict = {"migrated": False, "error": "never attempted"}
    for attempt in range(20):
        try:
            async with await ServeClient.connect(
                "127.0.0.1", proc.port
            ) as admin:
                result = await admin.request(
                    "migrate", session=session_id, target=target
                )
            note(
                f"migrated {session_id!r} {result.get('from')} -> "
                f"{result.get('to')} at applied_seq "
                f"{result.get('applied_seq')}"
            )
            return result
        except Exception as exc:  # retry across kills hitting mid-move
            last = {"migrated": False, "error": f"{exc}"}
            await asyncio.sleep(0.1 * (attempt + 1))
    return last


def run_crashtest(
    workload: str = "gcc2k",
    length: int = 4000,
    seed: int = 0,
    predictor: str = "lvp",
    entries: int = 256,
    shards: int = 1,
    sessions: int = 3,
    kills: int = 3,
    kill_router: bool = False,
    migrations: int = 1,
    standbys: int = 0,
    events_per_request: int = 64,
    data_dir: str | None = None,
    fsync_interval: float = 0.005,
    checkpoint_every: int = 200,
    timeout: float = 300.0,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run one crash-test campaign; returns the report dict.

    Each of ``sessions`` durable sessions replays its own trace
    (``seed + i``) against its own local reference.  ``kills`` SIGKILLs
    land mid-load: restarts of the one server at ``shards == 1``,
    worker-shard kills (rotating over the shards that own sessions)
    above.  With more than one shard, ``kill_router=True`` also
    SIGKILLs the router itself once, and ``migrations > 0`` runs one
    live migration concurrently with the load.  ``equivalent`` is True
    only when every session's acked responses and final snapshot match
    its reference.

    ``standbys=1`` runs the same campaign with a warm standby behind
    every shard -- worker kills then exercise promotion instead of
    restart-and-replay -- and appends a recovery-time-objective
    comparison (:func:`measure_rto`) to the report under ``"rto"``.
    """
    from repro.serve.ring import HashRing
    from repro.workloads.generator import ensure_stored, generate_trace

    note = progress or (lambda message: None)
    spec = spec_from_name(predictor, entries)
    shard_names = [shard_name(i) for i in range(shards)]
    ring = HashRing(shard_names)

    session_ids = [f"crash-{i:02d}" for i in range(sessions)]
    chunk_lists: list[list[list[dict]]] = []
    references: list[tuple[list[dict], dict]] = []
    workloads: list[dict] = []
    for i in range(sessions):
        desc = {"name": workload, "length": length, "seed": seed + i}
        workloads.append(desc)
        ensure_stored(workload, length, seed + i)
        events = trace_to_events(generate_trace(workload, length, seed + i))
        chunks = [
            events[j:j + events_per_request]
            for j in range(0, len(events), events_per_request)
        ]
        chunk_lists.append(chunks)
        references.append(
            _reference_run(spec, desc, chunks, session_id=session_ids[i])
        )
    total = max(len(chunks) for chunks in chunk_lists)

    placements = {sid: ring.lookup(sid) for sid in session_ids}
    # Rotate kills over exactly the shards that own live sessions, so
    # no SIGKILL is a blank.
    victims = list(dict.fromkeys(placements.values()))
    note(
        f"{sessions} session(s) over {shards} shard(s): " + ", ".join(
            f"{sid}->{shard}" for sid, shard in placements.items()
        )
    )

    spacing = max(1, total // (kills + 2))
    kill_at = {spacing * (i + 1) for i in range(kills)}
    kill_at = {k for k in kill_at if k < total}
    if shards == 1:
        # The one server is the whole tier: every kill restarts it.
        restart_at, kill_at = kill_at, set()
    else:
        restart_at = {(2 * total) // 3} if kill_router else set()
        kill_at -= restart_at
    migrate_at = (
        {max(1, total // 3)} if migrations > 0 and shards > 1 else set()
    )
    owner = placements[session_ids[0]]
    migrate_target = shard_names[(shard_names.index(owner) + 1) % shards]

    owned_tmp = None
    if data_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-crashtest-")
        data_dir = owned_tmp.name

    proc = _TierProc(
        data_dir, shards, fsync_interval, checkpoint_every,
        standbys=standbys,
        # Bound failure detection so backed-off health polls never
        # dominate the campaign (or the RTO comparison's fairness).
        health_backoff_max=0.5,
    )
    clients = [
        DurableClient("127.0.0.1", 0, sid, spec, workload=workloads[i])
        for i, sid in enumerate(session_ids)
    ]

    async def _campaign() -> dict:
        loop = asyncio.get_running_loop()
        port = await loop.run_in_executor(None, proc.start)
        for client in clients:
            client.port = port
        try:
            outcome = await _drive(
                clients, chunk_lists, kill_at, restart_at, migrate_at,
                victims, migrate_target, proc, note,
            )
            outcome["tier"] = await clients[0].stats()
            outcome["finals"] = [
                (await client.close_session()).get("closed")
                for client in clients
            ]
            return outcome
        finally:
            for client in clients:
                await client.close()
            proc.terminate()

    async def _bounded() -> dict:
        # Backstop: a harness/client bug must surface as a failure, not
        # a hung CI job.  Cancellation still runs _campaign's cleanup.
        try:
            return await asyncio.wait_for(_campaign(), timeout)
        except asyncio.TimeoutError:
            raise CrashTestError(
                f"campaign did not finish within {timeout:.0f}s"
            ) from None

    try:
        outcome = asyncio.run(_bounded())
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()

    mismatches: list[str] = []
    lost_acks = 0
    finals_match = True
    for i, sid in enumerate(session_ids):
        expected, expected_final = references[i]
        acked = outcome["acked"][i]
        lost_acks += len(expected) - len(acked)
        mismatches.extend(
            f"{sid}:chunk-{j}"
            for j, (got, want) in enumerate(zip(acked, expected))
            if got != want
        )
        if outcome["finals"][i] != expected_final:
            finals_match = False
            mismatches.append(f"{sid}:final-state")
    # A migration that raced a kill may legitimately resolve to "the
    # session already lives on the target" (the move landed before the
    # rollback); only a migration that never moved anything and never
    # settled is a failure.
    migration_ok = all(
        m.get("migrated") or m.get("reason")
        for m in outcome["migrations"]
    )
    equivalent = (
        not mismatches and lost_acks == 0 and finals_match and migration_ok
    )

    tier = outcome["tier"]
    if shards == 1:
        # Give the bare server's stats the router's per-shard shape:
        # one process, restarted once per kill.
        kills_done, router_kills = outcome["restarts"], 0
        tier = {"shards": {shard_names[0]: {
            "stats": tier, "restarts": kills_done,
        }}}
    else:
        kills_done, router_kills = outcome["kills_done"], outcome["restarts"]
    processes = tier.get("shards", {})
    report = {
        "workload": {"name": workload, "length": length, "seed": seed},
        "predictor": predictor,
        "entries": entries,
        "shards": shards,
        "sessions": sessions,
        "standbys": standbys,
        "promotions": {
            name: entry.get("promotions", 0)
            for name, entry in processes.items()
        },
        "placements": placements,
        "chunks": sum(len(chunks) for chunks in chunk_lists),
        "events": sum(
            sum(len(chunk) for chunk in chunks) for chunks in chunk_lists
        ),
        "events_per_request": events_per_request,
        "kills_requested": kills,
        "kills_done": kills_done,
        "router_kills": router_kills,
        "worker_restarts": {
            name: entry.get("restarts", 0)
            for name, entry in processes.items()
        },
        "migrations": outcome["migrations"],
        "reconnects": sum(client.reconnects for client in clients),
        "retries": sum(client.retries for client in clients),
        "acked_chunks": sum(len(acks) for acks in outcome["acked"]),
        "lost_acks": lost_acks,
        "mismatched_chunks": mismatches,
        "final_state_match": finals_match,
        "final_state": {
            sid: outcome["finals"][i] for i, sid in enumerate(session_ids)
        },
        "reference_final_state": {
            sid: references[i][1] for i, sid in enumerate(session_ids)
        },
        "router_counters": tier.get("router_counters", {}),
        "durability": {
            name: entry.get("stats", {}).get("durability", {})
            for name, entry in processes.items()
        },
        "equivalent": equivalent,
    }
    note(
        f"verdict: {'EQUIVALENT' if equivalent else 'DIVERGED'} "
        f"({report['acked_chunks']}/{report['chunks']} chunks acked, "
        f"{kills_done} kill(s), {router_kills} router kill(s), "
        f"{len(outcome['migrations'])} migration(s), "
        f"{report['reconnects']} reconnects)"
    )
    if standbys:
        lengths = tuple(sorted({
            max(events_per_request, length // 4),
            max(events_per_request, length // 2),
            length,
        }))
        note(f"measuring recovery-time objective at WAL lengths {lengths}")
        report["rto"] = measure_rto(
            lengths=lengths,
            predictor=predictor,
            entries=entries,
            events_per_request=events_per_request,
            fsync_interval=fsync_interval,
            timeout=timeout,
            progress=progress,
        )
    return report


# ----------------------------------------------------------------------
# Recovery-time objective: promotion vs. restart-and-replay
# ----------------------------------------------------------------------


def _synthetic_events(count: int) -> list[dict]:
    """``count`` deterministic load events (no trace machinery needed:
    RTO measures the serving tier, not prediction quality)."""
    return [
        {
            "k": "l", "pc": 4096 + 8 * (i % 13),
            "addr": 65536 + 16 * (i % 251), "size": 4, "value": i * 7,
        }
        for i in range(count)
    ]


async def _measure_one_rto(
    mode: str,
    events: list[dict],
    events_per_request: int,
    spec: dict,
    fsync_interval: float,
    health_interval: float,
    health_backoff_max: float,
    note: Callable[[str], None],
) -> dict:
    """One kill-to-first-served-response measurement on a fresh tier.

    ``mode`` is ``"promote"`` (one warm standby per shard) or
    ``"restart"`` (cold restart-and-replay).  Both run the same
    two-shard tier with the same aggressive health-poll settings, so
    the measured difference is the recovery path itself, not failure
    detection.  ``checkpoint_every`` is set beyond the WAL length so
    the restart mode replays every record -- the worst case the
    standby exists to beat.
    """
    from repro.serve.ring import HashRing

    shards = 2
    victim = shard_name(0)
    ring = HashRing([shard_name(i) for i in range(shards)])
    session_id = next(
        f"rto-{i:03d}" for i in itertools.count()
        if ring.lookup(f"rto-{i:03d}") == victim
    )
    chunks = [
        events[i:i + events_per_request]
        for i in range(0, len(events), events_per_request)
    ]
    loop = asyncio.get_running_loop()
    with tempfile.TemporaryDirectory(prefix="repro-rto-") as root:
        tier = _TierProc(
            root, shards, fsync_interval,
            checkpoint_every=1_000_000_000,
            standbys=1 if mode == "promote" else 0,
            health_interval=health_interval,
            health_backoff_max=health_backoff_max,
        )
        client = DurableClient("127.0.0.1", 0, session_id, spec)
        try:
            client.port = await loop.run_in_executor(None, tier.start)
            await client.connect()
            for chunk in chunks:
                await client.apply(chunk)
            pid = tier.kill_worker(victim)
            killed_at = time.monotonic()
            await client.apply(_synthetic_events(1))
            rto = time.monotonic() - killed_at
            note(
                f"rto[{mode}] wal={len(events)} events "
                f"({len(chunks) + 1} records): {rto * 1000:.0f} ms "
                f"(killed pid {pid})"
            )
            return {
                "mode": mode,
                "events": len(events),
                "wal_records": len(chunks) + 1,
                "rto_seconds": rto,
            }
        finally:
            await client.close()
            tier.terminate()


def measure_rto(
    lengths: tuple[int, ...] = (256, 1024, 4096),
    predictor: str = "lvp",
    entries: int = 64,
    events_per_request: int = 32,
    fsync_interval: float = 0.005,
    health_interval: float = 0.05,
    health_backoff_max: float = 0.05,
    timeout: float = 600.0,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Measure kill-to-first-served-response at several WAL lengths.

    For each length the same load is driven twice on fresh two-shard
    tiers -- once with a warm standby (failover = promotion), once
    without (failover = restart-and-replay) -- and the time from
    SIGKILLing the session's owner shard to the next successfully
    served ``apply`` is recorded.  The headline verdict,
    ``promotion_below_restart_at_longest``, is the warm-standby
    pitch: promotion cost stays flat while replay grows with the WAL.
    """
    note = progress or (lambda message: None)
    spec = spec_from_name(predictor, entries)
    lengths = tuple(sorted({int(n) for n in lengths if int(n) > 0}))
    if not lengths:
        raise ValueError("measure_rto needs at least one WAL length")

    async def _campaign() -> list[dict]:
        rows = []
        for length in lengths:
            events = _synthetic_events(length)
            row: dict = {"events": length}
            for mode in ("restart", "promote"):
                sample = await asyncio.wait_for(
                    _measure_one_rto(
                        mode, events, events_per_request, spec,
                        fsync_interval, health_interval,
                        health_backoff_max, note,
                    ),
                    timeout,
                )
                row["wal_records"] = sample["wal_records"]
                row[f"{mode}_rto_seconds"] = sample["rto_seconds"]
            row["promotion_below_restart"] = (
                row["promote_rto_seconds"] < row["restart_rto_seconds"]
            )
            rows.append(row)
        return rows

    rows = asyncio.run(_campaign())
    return {
        "predictor": predictor,
        "entries": entries,
        "events_per_request": events_per_request,
        "health_interval": health_interval,
        "lengths": rows,
        "promotion_below_restart_at_longest": rows[-1][
            "promotion_below_restart"
        ],
    }


__all__ = [
    "CrashTestError",
    "measure_rto",
    "run_crashtest",
    "SERVER_START_TIMEOUT",
]
