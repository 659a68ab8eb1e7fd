"""Front router: one address, N worker-shard processes behind it.

The single asyncio :class:`~repro.serve.server.PredictionServer` is
GIL-bound -- one process, one core, and one crash domain for every
session.  The router breaks all three limits without touching the
worker's logic: it consistent-hashes session ids onto worker shards
(:mod:`repro.serve.ring`), forwards request frames *verbatim* (bodies
are decoded once for routing, never re-encoded), and pumps response
bytes straight back, so the tier scales with worker processes while
clients keep speaking the exact single-server protocol.

**Failover.**  A monitor task watches the worker processes
(:mod:`repro.serve.shardmgr`).  A SIGKILLed worker is restarted on its
own data dir and replays its WAL + checkpoints before accepting
connections -- acked state is never lost.  Client connections with
requests in flight on the dead shard are closed (their responses died
with the worker); :class:`~repro.serve.client.DurableClient` reconnects
and retries the same ``seq``, and the recovered shard's replay cache
resolves each retry to its one true response.  Requests routed to a
shard mid-restart get a retryable ``shard-unavailable`` answer instead
of silence.

**Live migration.**  ``{"op": "migrate", "session": S, "target": T}``
rebalances one durable session with no client cooperation: the router
marks the session *moving* (new requests get retryable
``session-migrating``), asks the source shard to ``release`` it
(drain + checkpoint + fsync + freeze), moves the session's durability
directory into the target shard's data dir, tells the target to
``adopt`` (recover) it, and records a placement override so future
requests route to the new home.  Overrides are persisted in the tier's
state file and survive router restarts.

The router answers ``ping``/``stats``/``shards``/``migrate`` itself;
``stats`` aggregates every worker's payload plus per-shard health.
"""

from __future__ import annotations

import asyncio
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServerConfig, session_dir_name
from repro.serve.ring import DEFAULT_REPLICAS, HashRing
from repro.serve.shardmgr import ShardManager


#: Sentinel placement while a session's files are moving between shards.
_MOVING = "__moving__"


@dataclass(frozen=True)
class RouterConfig:
    """Knobs for one :class:`ShardRouter`."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker shard count (each is its own process on its own core).
    shards: int = 2
    #: Root data dir; each worker gets ``<data_dir>/shard-NN``.  None
    #: disables durability tier-wide (failover restarts still happen,
    #: but only durable sessions survive them, and migration needs
    #: files to move).
    data_dir: str | None = None
    #: Virtual points per shard on the consistent-hash ring.
    replicas: int = DEFAULT_REPLICAS
    #: Warm standbys per shard (0 or 1).  With a standby, failover
    #: promotes it (port swap + bounded catch-up) instead of cold
    #: restart-and-replay; see :mod:`repro.serve.standby`.
    standbys: int = 0
    #: *Base* seconds between worker liveness polls.  The monitor backs
    #: off exponentially (deterministic jitter) toward
    #: ``health_backoff_max`` while the tier stays healthy, and any
    #: failure snaps it back to this base.
    health_interval: float = 0.25
    #: Ceiling for the backed-off health poll, seconds.
    health_backoff_max: float = 2.0
    #: Seconds between worker ping probes (hang detection); 0 disables.
    ping_interval: float = 5.0
    #: Seconds a health ping may take before the worker counts as hung.
    ping_timeout: float = 5.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Every worker's (and standby's) server config, passed through to
    #: its ``serve`` command line; the manager sets each process's own
    #: host, port, data dir, shard name and parent pid.
    worker: ServerConfig = field(default_factory=ServerConfig)


@dataclass
class RouterCounters:
    """Router-side counters (the ``stats`` RPC's ``router`` section)."""

    connections: int = 0
    forwarded: int = 0
    local_ops: int = 0
    protocol_errors: int = 0
    routing_errors: int = 0
    failovers: int = 0
    promotions: int = 0
    standby_respawns: int = 0
    migrations: int = 0
    dropped_connections: int = 0

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "forwarded": self.forwarded,
            "local_ops": self.local_ops,
            "protocol_errors": self.protocol_errors,
            "routing_errors": self.routing_errors,
            "failovers": self.failovers,
            "promotions": self.promotions,
            "standby_respawns": self.standby_respawns,
            "migrations": self.migrations,
            "dropped_connections": self.dropped_connections,
        }


class _Upstream:
    """One client connection's pipe to one worker shard."""

    __slots__ = ("shard", "writer", "pump", "alive")

    def __init__(self, shard: str, writer, pump) -> None:
        self.shard = shard
        self.writer = writer
        self.pump = pump
        self.alive = True


class _ClientConn:
    """Per-client-connection routing state."""

    __slots__ = ("reader", "writer", "lock", "upstreams", "closed")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.upstreams: dict[str, _Upstream] = {}
        self.closed = False


class ShardRouter:
    """The sharded tier's front process (see module docstring)."""

    def __init__(self, config: RouterConfig | None = None) -> None:
        self.config = config or RouterConfig()
        self.manager = ShardManager(
            self.config.shards,
            data_dir=self.config.data_dir,
            host="127.0.0.1",
            worker=self.config.worker,
            standbys=self.config.standbys,
        )
        self.ring = HashRing(
            list(self.manager.shards), replicas=self.config.replicas
        )
        #: Migration placement overrides: session id -> shard name (or
        #: the _MOVING sentinel mid-handoff).  Persisted in the tier
        #: state file so a restarted router keeps routing migrated
        #: sessions to the shard that actually holds their files.
        self.overrides: dict[str, str] = {}
        self.counters = RouterCounters()
        self.recovery: dict = {}
        self._admin: dict[str, ServeClient] = {}
        self._conns: set[_ClientConn] = set()
        self._server: asyncio.AbstractServer | None = None
        self._monitor: asyncio.Task | None = None
        self._restarting: set[str] = set()
        self._standby_respawning: set[str] = set()
        self._draining = False
        self._shutdown = asyncio.Event()
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Fence + spawn workers, restore overrides, bind, monitor."""
        from repro.serve.shardmgr import read_state

        previous = (
            read_state(self.config.data_dir)
            if self.config.data_dir is not None else None
        )
        loop = asyncio.get_running_loop()
        # Spawning blocks on worker startup lines; keep the loop free.
        await loop.run_in_executor(None, self.manager.start_all)
        if previous is not None:
            self._restore_overrides(previous.get("overrides"))
        self.recovery = {
            "workers": len(self.manager.shards),
            "fenced": previous is not None,
            "overrides_restored": len(self.overrides),
        }
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.manager.extra["overrides"] = self.overrides
        self.manager.write_state(router_port=self.port)
        self._monitor = asyncio.create_task(self._run_monitor())

    def _restore_overrides(self, overrides) -> None:
        if not isinstance(overrides, dict):
            return
        for session, shard in overrides.items():
            if (isinstance(session, str) and isinstance(shard, str)
                    and shard in self.manager.shards):
                self.overrides[session] = shard

    async def serve_until_shutdown(self) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._shutdown.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await self._shutdown.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        await self.drain()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def drain(self) -> None:
        """Graceful tier shutdown: router first, then the workers."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
        for client in list(self._admin.values()):
            await client.close()
        self._admin.clear()
        for conn in list(self._conns):
            await self._close_conn(conn)
        loop = asyncio.get_running_loop()
        # Workers drain on SIGTERM: queued requests are answered and
        # WALs are fsynced before their processes exit.
        await loop.run_in_executor(None, self.manager.stop_all)
        self.manager.write_state(router_port=self.port)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def placement(self, session_id: str) -> str | None:
        """The shard owning ``session_id`` (None while migrating)."""
        shard = self.overrides.get(session_id)
        if shard == _MOVING:
            return None
        if shard is not None:
            return shard
        return self.ring.lookup(session_id)

    async def _on_connection(self, reader, writer) -> None:
        conn = _ClientConn(reader, writer)
        self._conns.add(conn)
        self.counters.connections += 1
        try:
            await self._read_loop(conn)
        finally:
            self._conns.discard(conn)
            await self._close_conn(conn)

    async def _read_loop(self, conn: _ClientConn) -> None:
        while not conn.closed:
            try:
                frame_type, header, raw = await protocol.read_frame_bytes(
                    conn.reader, self.config.max_frame_bytes
                )
                body = protocol.decode_body(frame_type, raw)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            except protocol.ProtocolError as exc:
                self.counters.protocol_errors += 1
                await self._send(conn, protocol.ERROR,
                                 protocol.error_response(exc.code, str(exc)))
                if not exc.recoverable:
                    return
                continue
            if frame_type != protocol.REQUEST:
                self.counters.protocol_errors += 1
                await self._send(
                    conn, protocol.ERROR,
                    protocol.error_response(
                        "bad-frame",
                        f"expected a REQUEST frame, got type {frame_type}",
                    ),
                )
                continue
            try:
                request_id, op = protocol.validate_request(body)
            except protocol.ProtocolError as exc:
                self.counters.protocol_errors += 1
                await self._send(conn, protocol.ERROR,
                                 protocol.error_response(exc.code, str(exc)))
                continue
            if self._draining:
                await self._respond_error(
                    conn, "shutting-down", "router is draining", request_id
                )
                continue
            await self._handle_request(conn, request_id, op, body,
                                       header + raw)

    async def _handle_request(
        self, conn: _ClientConn, request_id: int, op: str, body: dict,
        raw: bytes,
    ) -> None:
        if op == "ping":
            self.counters.local_ops += 1
            await self._respond_ok(conn, request_id, {
                "pong": True, "router": True,
            })
            return
        if op == "stats":
            self.counters.local_ops += 1
            await self._respond_ok(conn, request_id, await self.stats())
            return
        if op == "shards":
            self.counters.local_ops += 1
            await self._respond_ok(conn, request_id, self.describe())
            return
        if op == "migrate":
            self.counters.local_ops += 1
            await self._handle_migrate(conn, request_id, body)
            return
        session_id = body.get("session")
        if not isinstance(session_id, str) or not session_id:
            self.counters.routing_errors += 1
            await self._respond_error(
                conn, "bad-spec",
                f"op {op!r} needs a 'session' string to route by, got "
                f"{session_id!r}",
                request_id,
            )
            return
        shard = self.placement(session_id)
        if shard is None:
            await self._respond_error(
                conn, "session-migrating",
                f"session {session_id!r} is migrating between shards; "
                "retry",
                request_id,
            )
            return
        await self._forward(conn, request_id, shard, raw)

    async def _forward(
        self, conn: _ClientConn, request_id: int, shard: str, raw: bytes
    ) -> None:
        """Relay one request frame verbatim to ``shard``."""
        upstream = conn.upstreams.get(shard)
        if upstream is None or not upstream.alive:
            try:
                upstream = await self._open_upstream(conn, shard)
            except (ConnectionError, OSError) as exc:
                self.counters.routing_errors += 1
                await self._respond_error(
                    conn, "shard-unavailable",
                    f"worker shard {shard} is not accepting connections "
                    f"({exc}); retry",
                    request_id,
                )
                return
        try:
            upstream.writer.write(raw)
            await upstream.writer.drain()
            self.counters.forwarded += 1
        except (ConnectionError, OSError):
            upstream.alive = False
            await self._respond_error(
                conn, "shard-unavailable",
                f"worker shard {shard} dropped mid-request; retry",
                request_id,
            )

    async def _open_upstream(
        self, conn: _ClientConn, shard: str
    ) -> _Upstream:
        port = self.manager.shards[shard].port
        if port is None or shard in self._restarting:
            raise ConnectionError(f"shard {shard} is restarting")
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        upstream = _Upstream(shard, writer, None)
        upstream.pump = asyncio.create_task(
            self._pump_responses(conn, upstream, reader)
        )
        conn.upstreams[shard] = upstream
        return upstream

    async def _pump_responses(
        self, conn: _ClientConn, upstream: _Upstream, reader
    ) -> None:
        """Copy response frames verbatim, worker -> client.

        When the worker dies mid-stream the in-flight responses are
        unrecoverable, so the *client* connection is closed too: the
        durable client's reconnect-and-retry machinery (same seq, WAL
        replay cache) is the component that owns exactly-once delivery,
        and a closed connection is its unambiguous retry signal.
        """
        try:
            while True:
                _, header, raw = await protocol.read_frame_bytes(
                    reader, protocol.HARD_FRAME_LIMIT
                )
                async with conn.lock:
                    conn.writer.write(header + raw)
                    await conn.writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                protocol.ProtocolError):
            upstream.alive = False
            if not conn.closed and not self._draining:
                self.counters.dropped_connections += 1
                await self._close_conn(conn)
        except asyncio.CancelledError:
            raise

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    async def _send(
        self, conn: _ClientConn, frame_type: int, body: dict
    ) -> None:
        try:
            async with conn.lock:
                conn.writer.write(protocol.encode_frame(frame_type, body))
                await conn.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            conn.closed = True

    async def _respond_ok(
        self, conn: _ClientConn, request_id: int, result: dict
    ) -> None:
        await self._send(conn, protocol.RESPONSE,
                         protocol.ok_response(request_id, result))

    async def _respond_error(
        self, conn: _ClientConn, code: str, message: str, request_id: int
    ) -> None:
        await self._send(conn, protocol.RESPONSE,
                         protocol.error_response(code, message, request_id))

    async def _close_conn(self, conn: _ClientConn) -> None:
        conn.closed = True
        for upstream in conn.upstreams.values():
            upstream.alive = False
            if upstream.pump is not None:
                upstream.pump.cancel()
            try:
                upstream.writer.close()
            except Exception:
                pass
        conn.upstreams.clear()
        try:
            conn.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Health monitoring + failover
    # ------------------------------------------------------------------

    async def _run_monitor(self) -> None:
        """The health poll loop: adaptive cadence, not a fixed sleep.

        Healthy ticks stretch the poll exponentially from
        ``health_interval`` toward ``health_backoff_max`` (deterministic
        jitter -- see :func:`~repro.serve.shardmgr.poll_backoff`); any
        dead process or in-flight failover snaps the cadence back to
        the base so recovery is detected promptly while it matters.
        """
        from repro.serve.shardmgr import poll_backoff

        last_ping = time.monotonic()
        streak = 0
        backoff_key = str(self.config.data_dir or id(self))
        while True:
            await asyncio.sleep(poll_backoff(
                self.config.health_interval,
                self.config.health_backoff_max,
                streak, key=backoff_key,
            ))
            dead = self.manager.dead_shards()
            dead_standbys = self.manager.dead_standbys()
            if (dead or dead_standbys or self._restarting
                    or self._standby_respawning):
                streak = 0
            else:
                streak += 1
            for name in dead:
                if name not in self._restarting:
                    asyncio.create_task(self._failover(name))
            for name in dead_standbys:
                if (name not in self._restarting
                        and name not in self._standby_respawning):
                    asyncio.create_task(self._respawn_standby(name))
            if (self.config.ping_interval > 0
                    and time.monotonic() - last_ping
                    >= self.config.ping_interval):
                last_ping = time.monotonic()
                for name, shard in list(self.manager.shards.items()):
                    if shard.alive() and name not in self._restarting:
                        asyncio.create_task(self._probe(name))

    async def _failover(self, name: str) -> None:
        """Cut one dead shard over to a new process.

        With a live standby the cutover is a *promotion* -- fence the
        corpse, swap in the standby (already holding replayed session
        state; it only catches up on the un-shipped WAL tail), spawn a
        fresh standby behind it.  Without one (or if promotion fails
        before the swap), fall back to cold restart-and-replay on the
        shard's data dir.  Either way clients ride the existing
        retryable ``shard-unavailable`` path while the port changes.
        """
        self._restarting.add(name)
        try:
            self.counters.failovers += 1
            admin = self._admin.pop(name, None)
            if admin is not None:
                await admin.close()
            loop = asyncio.get_running_loop()
            if self.manager.standbys.get(name) is not None:
                try:
                    await loop.run_in_executor(
                        None, self.manager.promote, name
                    )
                    self.counters.promotions += 1
                    return
                except Exception:
                    pass  # no usable standby; cold restart below
            try:
                await loop.run_in_executor(
                    None, self.manager.restart, name
                )
            except Exception:
                # The worker would not come back (e.g. mid-shutdown);
                # the next monitor tick tries again.
                return
        finally:
            self._restarting.discard(name)

    async def _respawn_standby(self, name: str) -> None:
        """Replace one dead standby (streams afresh from its primary)."""
        self._standby_respawning.add(name)
        try:
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    None, self.manager.restart_standby, name
                )
                self.counters.standby_respawns += 1
            except Exception:
                return  # next tick retries (e.g. primary mid-failover)
        finally:
            self._standby_respawning.discard(name)

    async def _probe(self, name: str) -> None:
        """Ping one worker; a hung (unresponsive) one is restarted."""
        try:
            client = await self._admin_client(name)
            await asyncio.wait_for(
                client.ping(), timeout=self.config.ping_timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError, ServeError):
            if name in self._restarting or self._draining:
                return
            shard = self.manager.shards[name]
            if shard.alive():
                self.manager.kill(name)
            # The monitor's next liveness poll triggers the failover.

    async def _admin_client(self, name: str) -> ServeClient:
        client = self._admin.get(name)
        if client is not None and client._conn_lost is None:
            return client
        if client is not None:
            await client.close()
        port = self.manager.shards[name].port
        if port is None:
            raise ConnectionError(f"shard {name} has no port yet")
        client = await ServeClient.connect("127.0.0.1", port)
        self._admin[name] = client
        return client

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------

    async def _handle_migrate(
        self, conn: _ClientConn, request_id: int, body: dict
    ) -> None:
        session_id = body.get("session")
        target = body.get("target")
        if not isinstance(session_id, str) or not session_id:
            await self._respond_error(
                conn, "bad-spec",
                f"migrate needs a 'session' string, got {session_id!r}",
                request_id,
            )
            return
        if target not in self.manager.shards:
            await self._respond_error(
                conn, "bad-spec",
                f"migrate needs a 'target' in "
                f"{sorted(self.manager.shards)}, got {target!r}",
                request_id,
            )
            return
        try:
            result = await self.migrate(session_id, target)
        except ServeError as exc:
            await self._respond_error(conn, exc.code, str(exc), request_id)
            return
        except (ConnectionError, OSError) as exc:
            await self._respond_error(
                conn, "shard-unavailable", str(exc), request_id
            )
            return
        await self._respond_ok(conn, request_id, result)

    async def migrate(self, session_id: str, target: str) -> dict:
        """Move one durable session to ``target`` (see module docs)."""
        if self.config.data_dir is None:
            raise ServeError(
                "durability-disabled",
                "this tier has no --data-dir; sessions have no files "
                "to migrate",
            )
        source = self.placement(session_id)
        if source is None:
            raise ServeError(
                "session-migrating",
                f"session {session_id!r} is already migrating",
            )
        if source == target:
            return {
                "migrated": False, "session": session_id,
                "from": source, "to": target,
                "reason": "session already lives on the target shard",
            }
        # 1. Quiesce: route new requests away while the files move.
        self.overrides[session_id] = _MOVING
        moved = False
        try:
            # 2. Source drains + checkpoints + fsyncs + freezes it.
            source_admin = await self._admin_client(source)
            await source_admin.request("release", session=session_id)
            # 3. Move the durability directory under the target shard.
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, self._move_session_dir, session_id, source, target
            )
            moved = True
            # 4. Target recovers it (replay cache and all) right now.
            target_admin = await self._admin_client(target)
            adopted = await target_admin.request(
                "adopt", session=session_id
            )
        except BaseException:
            # Roll back to wherever the files actually are, so the
            # session stays reachable: un-freeze via adopt on that side.
            fallback = target if moved else source
            if fallback == self.ring.lookup(session_id):
                self.overrides.pop(session_id, None)
            else:
                self.overrides[session_id] = fallback
            try:
                admin = await self._admin_client(fallback)
                await admin.request("adopt", session=session_id)
            except (ConnectionError, OSError, ServeError):
                pass
            self._persist_overrides()
            raise
        if target == self.ring.lookup(session_id):
            # Hashing already sends it there; no override needed.
            self.overrides.pop(session_id, None)
        else:
            self.overrides[session_id] = target
        self.counters.migrations += 1
        self._persist_overrides()
        return {
            "migrated": True,
            "session": session_id,
            "from": source,
            "to": target,
            "applied_seq": adopted.get("applied_seq"),
        }

    def _move_session_dir(
        self, session_id: str, source: str, target: str
    ) -> None:
        name = session_dir_name(session_id)
        source_dir = (
            self.manager.shards[source].data_dir / "sessions" / name
        )
        target_sessions = self.manager.shards[target].data_dir / "sessions"
        if not source_dir.is_dir():
            raise ServeError(
                "unknown-session",
                f"session {session_id!r} has no durable files on "
                f"{source}",
            )
        target_sessions.mkdir(parents=True, exist_ok=True)
        destination = target_sessions / name
        if destination.exists():
            shutil.rmtree(destination)
        shutil.move(str(source_dir), str(destination))

    def _persist_overrides(self) -> None:
        self.manager.extra["overrides"] = {
            session: shard for session, shard in self.overrides.items()
            if shard != _MOVING
        }
        self.manager.write_state(router_port=self.port)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Cheap tier topology: ring layout + worker liveness."""
        return {
            "router": True,
            "ring": self.ring.describe(),
            "overrides": {
                session: shard for session, shard in self.overrides.items()
            },
            "shards": {
                name: {
                    "alive": shard.alive(),
                    "port": shard.port,
                    "pid": shard.pid,
                    "restarts": shard.restarts,
                    "promotions": shard.promotions,
                }
                for name, shard in self.manager.shards.items()
            },
            "standbys": {
                name: {
                    "alive": standby.alive(),
                    "port": standby.port,
                    "pid": standby.pid,
                    "restarts": standby.restarts,
                }
                for name, standby in self.manager.standbys.items()
            },
        }

    async def stats(self) -> dict:
        """Aggregated tier stats: router counters + per-shard health
        and each live worker's own ``stats`` payload."""
        payload = self.describe()
        payload["router_counters"] = self.counters.as_dict()
        payload["draining"] = self._draining
        sessions_total = 0
        for name, entry in payload["shards"].items():
            if not entry["alive"]:
                entry["healthy"] = False
                continue
            try:
                client = await self._admin_client(name)
                stats = await asyncio.wait_for(
                    client.stats(), timeout=self.config.ping_timeout
                )
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    ServeError) as exc:
                entry["healthy"] = False
                entry["error"] = str(exc)
                continue
            entry["healthy"] = True
            entry["stats"] = stats
            sessions_total += stats.get("sessions", {}).get("active", 0)
        payload["sessions_active"] = sessions_total
        return payload


__all__ = ["RouterConfig", "RouterCounters", "ShardRouter"]
