"""Asyncio prediction server with a micro-batching scheduler.

Request lifecycle: connection read-loops decode frames and validate
envelopes, then enqueue requests on one bounded queue.  A single
scheduler task drains the queue in **micro-batches** -- every request
that has accumulated by the time it wakes, up to ``max_batch`` -- and
answers each batch with one buffered write per connection, so under
concurrency the per-response event-loop and flow-control overhead is
amortized across the batch (``max_batch=1`` gives one-request
batches).

Overload and failure policy:

* a full queue answers **immediately** with a structured
  ``backpressure`` error response -- requests are never silently
  dropped;
* requests that waited longer than ``request_timeout`` before the
  scheduler reached them are answered with a ``timeout`` error;
* malformed frames and bodies get structured error frames and never
  crash the server (see :mod:`repro.serve.protocol` for which ones
  also keep the connection);
* SIGTERM/SIGINT (:meth:`PredictionServer.serve_until_shutdown`)
  triggers a graceful drain: no new requests are accepted (they get
  ``shutting-down`` responses), every already-queued request is
  processed and answered, then connections close and the server exits.

Durability (``data_dir`` set): sessions opened with ``durable: true``
are write-ahead logged by :mod:`repro.serve.durability` -- every
mutating request is appended (and CRC-tagged) *before* it executes,
so its response frame is only ever written for a request that will
survive a crash.  Mutating requests on durable sessions must carry a
per-session ``seq``; replays return the cached response and gaps get
structured errors (see :class:`repro.serve.session.SeqTracker`).  On
startup the server scans ``data_dir`` and recovers every durable
session by checkpoint + WAL replay before accepting connections.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass

from repro.serve import protocol
from repro.serve.config import ServerConfig
from repro.serve.durability import DurabilityManager
from repro.serve.session import (
    MAX_EVENTS_PER_REQUEST,
    SeqTracker,
    SessionError,
    SessionManager,
    execute_op,
)


@dataclass
class ServeCounters:
    """Server-wide counters behind the ``stats`` RPC."""

    connections: int = 0
    requests: int = 0
    responses_ok: int = 0
    responses_error: int = 0
    protocol_errors: int = 0
    backpressure: int = 0
    timeouts: int = 0
    internal_errors: int = 0
    dropped_responses: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_seen: int = 0
    peak_queue_depth: int = 0

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "responses_ok": self.responses_ok,
            "responses_error": self.responses_error,
            "protocol_errors": self.protocol_errors,
            "backpressure": self.backpressure,
            "timeouts": self.timeouts,
            "internal_errors": self.internal_errors,
            "dropped_responses": self.dropped_responses,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "max_batch_seen": self.max_batch_seen,
            "peak_queue_depth": self.peak_queue_depth,
        }


class _Connection:
    """One client connection plus the write lock serializing replies."""

    __slots__ = ("reader", "writer", "lock", "alive")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.alive = True

    async def send(self, frame_type: int, body: dict) -> bool:
        return await self.send_raw(protocol.encode_frame(frame_type, body))

    async def send_raw(self, data: bytes) -> bool:
        """Write pre-encoded frames; False when the peer is gone."""
        if not self.alive:
            return False
        try:
            async with self.lock:
                self.writer.write(data)
                await self.writer.drain()
            return True
        except (ConnectionError, OSError, RuntimeError):
            self.alive = False
            return False


@dataclass(slots=True)
class _Request:
    id: int
    op: str
    body: dict
    conn: _Connection
    enqueued: float


class PredictionServer:
    """The online prediction service (see module docstring)."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.durability: DurabilityManager | None = None
        if self.config.data_dir is not None:
            self.durability = DurabilityManager(
                self.config.data_dir,
                fsync_interval=self.config.fsync_interval,
                checkpoint_every=self.config.checkpoint_every,
                segment_bytes=self.config.wal_segment_bytes,
                cache_size=self.config.seq_cache_size,
                cache_bytes=self.config.seq_cache_bytes,
            )
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            max_total_bytes=self.config.max_session_bytes,
            durability=self.durability,
        )
        #: Startup recovery report (populated by :meth:`recover`).
        self.recovery: dict = {}
        self.counters = ServeCounters()
        self._queue: asyncio.Queue[_Request] = asyncio.Queue(
            maxsize=self.config.max_queue
        )
        self._conns: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._scheduler: asyncio.Task | None = None
        self._watchdog: asyncio.Task | None = None
        self._draining = False
        self._shutdown = asyncio.Event()
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def recover(self) -> dict:
        """Scan ``data_dir`` and rebuild every durable session on disk.

        Runs synchronously (before any connection exists) so requests
        never race recovery; returns the durability stats so callers
        can report what was recovered.
        """
        self.recovery = self.sessions.recover_all()
        return self.recovery

    async def start(self) -> None:
        """Recover durable sessions, bind, accept, start the scheduler."""
        if self.durability is not None and not self.recovery:
            self.recover()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler = asyncio.create_task(self._run_scheduler())
        if self.config.parent_pid is not None:
            self._watchdog = asyncio.create_task(
                self._watch_parent(self.config.parent_pid)
            )

    async def _watch_parent(self, parent_pid: int) -> None:
        """Hard-exit the moment this worker is orphaned.

        ``os._exit`` on purpose: an orphan must stop writing its WAL
        *immediately* -- the replacement tier is about to recover (or
        move) those files, and a graceful drain would keep appending to
        them.  The WAL's append discipline makes the cut crash-safe.
        """
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            await asyncio.sleep(0.2)

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
        """Begin a graceful drain (idempotent; safe from handlers)."""
        self._shutdown.set()

    async def drain(self) -> None:
        """Graceful stop: answer everything queued, then close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every queued request is processed and its response written
        # (task_done fires only after the write attempt).
        await self._queue.join()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
        for conn in list(self._conns):
            conn.alive = False
            try:
                conn.writer.close()
            except Exception:
                pass
        if self.durability is not None:
            # Final fsync: everything acknowledged is on disk.
            self.durability.close_all()

    # ------------------------------------------------------------------
    # Connection read loop
    # ------------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._conns.add(conn)
        self.counters.connections += 1
        try:
            await self._read_loop(conn)
        finally:
            self._conns.discard(conn)
            conn.alive = False
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        while True:
            try:
                frame_type, body = await protocol.read_frame(
                    conn.reader, self.config.max_frame_bytes
                )
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            except protocol.ProtocolError as exc:
                self.counters.protocol_errors += 1
                await conn.send(
                    protocol.ERROR,
                    protocol.error_response(exc.code, str(exc)),
                )
                if not exc.recoverable:
                    return
                continue
            if frame_type != protocol.REQUEST:
                self.counters.protocol_errors += 1
                await conn.send(
                    protocol.ERROR,
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
                await conn.send(
                    protocol.ERROR,
                    protocol.error_response(exc.code, str(exc)),
                )
                continue
            self.counters.requests += 1
            if self._draining:
                self.counters.responses_error += 1
                await conn.send(
                    protocol.RESPONSE,
                    protocol.error_response(
                        "shutting-down", "server is draining", request_id
                    ),
                )
                continue
            request = _Request(
                id=request_id, op=op, body=body, conn=conn,
                enqueued=time.perf_counter(),
            )
            try:
                self._queue.put_nowait(request)
            except asyncio.QueueFull:
                self.counters.backpressure += 1
                self.counters.responses_error += 1
                await conn.send(
                    protocol.RESPONSE,
                    protocol.error_response(
                        "backpressure",
                        f"request queue full "
                        f"({self.config.max_queue} pending); retry",
                        request_id,
                    ),
                )
                continue
            depth = self._queue.qsize()
            if depth > self.counters.peak_queue_depth:
                self.counters.peak_queue_depth = depth

    # ------------------------------------------------------------------
    # Scheduler: micro-batch dispatch
    # ------------------------------------------------------------------

    async def _run_scheduler(self) -> None:
        while True:
            request = await self._queue.get()
            batch = [request]
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.counters.batches += 1
            self.counters.batched_requests += len(batch)
            if len(batch) > self.counters.max_batch_seen:
                self.counters.max_batch_seen = len(batch)

            # Compute every response first, then write once per
            # connection -- the write amortization micro-batching buys.
            per_conn: dict[_Connection, list[bytes]] = {}
            for req in batch:
                response = self._dispatch(req)
                per_conn.setdefault(req.conn, []).append(
                    protocol.encode_frame(protocol.RESPONSE, response)
                )
            for conn, frames in per_conn.items():
                if not await conn.send_raw(b"".join(frames)):
                    self.counters.dropped_responses += len(frames)
            for _ in batch:
                self._queue.task_done()

    def _dispatch(self, request: _Request) -> dict:
        """Execute one request; always returns a response body."""
        timeout = self.config.request_timeout
        if timeout is not None:
            waited = time.perf_counter() - request.enqueued
            if waited > timeout:
                self.counters.timeouts += 1
                self.counters.responses_error += 1
                return protocol.error_response(
                    "timeout",
                    f"request waited {waited:.3f}s in queue "
                    f"(budget {timeout:.3f}s)",
                    request.id,
                )
        try:
            result = self.execute(request.op, request.body)
        except SessionError as exc:
            self.counters.responses_error += 1
            return protocol.error_response(exc.code, str(exc), request.id)
        except ValueError as exc:
            # Bad predictor specs from build_predictor, etc.
            self.counters.responses_error += 1
            return protocol.error_response("bad-spec", str(exc), request.id)
        except Exception as exc:  # the server must never crash
            self.counters.internal_errors += 1
            self.counters.responses_error += 1
            return protocol.error_response(
                "internal", f"{type(exc).__name__}: {exc}", request.id
            )
        self.counters.responses_ok += 1
        return protocol.ok_response(request.id, result)

    def execute(self, op: str, body: dict) -> dict:
        """Execute one request body synchronously (also the test entry).

        Raises :class:`SessionError` (or ValueError for bad specs) on
        failure; :meth:`_dispatch` turns those into error responses.
        """
        if op == "open":
            return self._execute_open(body)
        if op in ("apply", "predict", "train", "close"):
            return self._execute_mutating(op, body)
        if op == "stats":
            return self.stats()
        if op == "ping":
            return {"pong": True}
        if op == "release":
            # Migration quiesce: checkpoint + fsync + freeze (the
            # router calls this before moving the session's files).
            return self.sessions.release(body.get("session"))
        if op == "adopt":
            return self.sessions.adopt(body.get("session"))
        if op == "wal-ship":
            # Replication: a warm standby pulling WAL bytes past its
            # cursors (see repro.serve.standby).  Appends are flushed
            # before they are acknowledged, so disk reads here see
            # every acked record.
            if self.durability is None:
                raise SessionError(
                    "this server has no --data-dir; there is no WAL "
                    "to ship",
                    code="durability-disabled",
                )
            from repro.serve.standby import DEFAULT_SHIP_BYTES, ship_wal
            max_bytes = body.get("max_bytes", DEFAULT_SHIP_BYTES)
            if not isinstance(max_bytes, int) or max_bytes <= 0:
                max_bytes = DEFAULT_SHIP_BYTES
            return ship_wal(
                self.durability.sessions_root, body.get("cursors"),
                max_bytes,
            )
        raise SessionError(
            f"unknown op {op!r}; valid ops: " + ", ".join(protocol.OPS),
            code="unknown-op",
        )

    def _execute_open(self, body: dict) -> dict:
        if body.get("durable"):
            session, resumed = self.sessions.open_durable(
                body.get("session"), body.get("spec"),
                workload=body.get("workload"),
            )
            return {
                "session": session.session_id,
                "storage_bits": session.predictor.storage_bits(),
                "durable": True,
                "resumed": resumed,
                # A reconnecting client resumes from here (its first
                # new request carries applied_seq + 1).
                "applied_seq": session.tracker.applied_seq,
            }
        session = self.sessions.open(
            body.get("session"), body.get("spec"),
            workload=body.get("workload"),
        )
        return {
            "session": session.session_id,
            "storage_bits": session.predictor.storage_bits(),
            "durable": False,
        }

    def _execute_mutating(self, op: str, body: dict) -> dict:
        """Check, run and record one mutating request.

        One sequence for every session: only a durable one (it has a
        WAL handle) logs the request before running it and keeps the
        fsync/checkpoint cadence after.  An in-memory session that
        sends a ``seq`` gets the same exactly-once contract, lasting
        the process lifetime.
        """
        session_id = body.get("session")
        seq = body.get("seq")
        if (op == "close" and seq is not None
                and self.durability is not None
                and isinstance(session_id, str)):
            # A retried close whose original landed: the tombstone has
            # the cached response.
            cached = self.durability.closed_response(session_id, seq)
            if cached is not None:
                return self._unwrap(cached)
        session = self.sessions.get(session_id)
        handle = self.sessions.durable_handle(session_id)
        if seq is not None:
            if session.tracker is None:
                session.tracker = SeqTracker(
                    self.config.seq_cache_size, self.config.seq_cache_bytes
                )
            cached = session.tracker.check(seq)
            if cached is not None:
                return self._unwrap(cached)
        elif handle is not None:
            raise SessionError(
                "mutating requests on a durable session must carry a "
                "'seq'",
                code="seq-required",
            )
        if handle is not None:
            # WAL first, execute second: an acknowledged request is
            # always recoverable, and the deterministic replay of an
            # unacknowledged one is harmless.
            handle.append(seq, op, self._wal_body(op, body))
        entry = execute_op(session, op, body)
        if seq is not None:
            session.tracker.record(seq, entry)
        closed = op == "close" and entry[0] == "ok"
        if handle is not None:
            if closed:
                self.durability.finalize_close(session_id, seq, entry)
            else:
                handle.after_record(session)
        # Effects only a live server has; WAL replay runs none of them.
        if closed:
            self.sessions.close(session_id)
        elif op == "apply" and entry[0] == "ok":
            self.sessions.touch_bytes(session)
        elif entry[0] == "error" and entry[1] == "internal":
            self.counters.internal_errors += 1
        return self._unwrap(entry)

    @staticmethod
    def _unwrap(entry: tuple) -> dict:
        if entry[0] == "ok":
            return entry[1]
        raise SessionError(entry[2], code=entry[1])

    @staticmethod
    def _wal_body(op: str, body: dict) -> dict:
        """The minimal request payload a WAL record must persist."""
        if op == "apply":
            return {"events": body.get("events")}
        if op == "predict":
            return {"pc": body.get("pc")}
        if op == "train":
            return {"outcome": body.get("outcome")}
        return {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` RPC payload: counters, sessions, queue.

        Everything a fleet operator needs over the wire: session and
        request counters, current queue depth, and -- with durability
        on -- the WAL counters plus the actual on-disk byte footprint.
        The router aggregates one of these per worker shard into its
        own ``stats`` response.
        """
        payload = {
            "sessions": self.sessions.snapshot(),
            "counters": self.counters.as_dict(),
            "queue_depth": self._queue.qsize(),
            "draining": self._draining,
            "config": {
                "max_queue": self.config.max_queue,
                "max_batch": self.config.max_batch,
                "request_timeout": self.config.request_timeout,
                "max_sessions": self.config.max_sessions,
                "data_dir": self.config.data_dir,
                "fsync_interval": self.config.fsync_interval,
                "checkpoint_every": self.config.checkpoint_every,
            },
        }
        if self.config.shard_name is not None:
            payload["shard"] = self.config.shard_name
        if self.durability is not None:
            payload["durability"] = self.durability.stats.as_dict()
            payload["durability"]["wal_disk_bytes"] = (
                self.durability.wal_disk_bytes()
            )
        return payload


__all__ = [
    "MAX_EVENTS_PER_REQUEST",
    "PredictionServer",
    "ServeCounters",
    "ServerConfig",
]
