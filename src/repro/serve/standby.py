"""Warm standby replication for the sharded serving tier.

Failover before this module was restart-and-replay: the router
respawned a dead worker over the same data dir and recovery cost grew
linearly with WAL length.  A *warm standby* keeps a second process per
shard whose session state is already live, so promotion is a port swap
plus a bounded catch-up instead of a full replay.

Three pieces:

**Primary side** (:func:`ship_wal`, served by the ``wal-ship`` op on
every durable :class:`~repro.serve.server.PredictionServer`): reads
sealed and in-progress WAL segments straight off disk -- appends are
flushed to the OS before they are acknowledged, so file reads see
every acked record -- and ships raw segment bytes in length-prefixed
protocol frames, resumable from a per-session ``(segment, offset)``
cursor.  The primary keeps no replication state at all; the standby
owns its cursors, which is what makes the stream trivially resumable
after either side restarts.

**Standby side** (:class:`ReplicaSet` / :class:`SessionReplica`,
driven by :class:`StandbyServer`): polls ``wal-ship``, CRC-verifies
every complete record (reusing the WAL line format), persists verified
lines into an identical local segment layout, and replays each record
into a live :class:`~repro.serve.session.PredictorSession` through
recovery's :class:`~repro.serve.durability.WalReplay`, which runs the
live server's own executor (:func:`~repro.serve.session.execute_op`)
-- replay is deterministic, so the replica is bit-identical to the
primary at every record boundary.  A partial tail line (the shipper
read mid-append) is simply not consumed: the cursor re-requests it
until the newline lands.  A CRC failure on a *complete* line means
real corruption; the replica resyncs that session from ``(1, 0)``.

**Promotion** (the ``promote`` op on :class:`StandbyServer`): the
shard manager fences the dead primary's pid first, then asks the
standby to promote, passing the primary's (local) data dir.  The
standby stops replicating, catches up on the un-shipped WAL tail by
reading the dead primary's segments directly -- torn final lines were
never acknowledged and are dropped, exactly like recovery's
truncation -- installs every replica with the step crash recovery
ends in (``DurabilityManager.install``, which attaches the WAL
writer), and starts serving on the port it already holds.
Catch-up is bounded by one poll interval of traffic, which is why the
measured recovery-time objective stays flat as the WAL grows.
"""

from __future__ import annotations

import asyncio
import shutil
from pathlib import Path

from repro.serve.durability import (
    _TOMBSTONE,
    _WAL_PREFIX,
    _WAL_SUFFIX,
    ReplicationError,
    WalReplay,
    decode_line,
    segment_path,
    session_dir_name,
    session_dirs,
)
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import SeqTracker, SessionError

#: Default byte budget per ``wal-ship`` response (shared across
#: sessions).  WAL lines are ASCII JSON; escaping roughly doubles them
#: inside the response body, so the cap keeps responses comfortably
#: under :data:`~repro.serve.protocol.MAX_FRAME_BYTES`.
DEFAULT_SHIP_BYTES = 192 * 1024

#: Hard cap a primary enforces on a requested ship budget.
MAX_SHIP_BYTES = 256 * 1024

#: How often an idle standby re-polls its primary, seconds.
DEFAULT_POLL_INTERVAL = 0.05


# ----------------------------------------------------------------------
# Primary side: serving WAL bytes from a cursor
# ----------------------------------------------------------------------


def ship_wal(
    sessions_root: Path,
    cursors: dict | None,
    max_bytes: int = DEFAULT_SHIP_BYTES,
) -> dict:
    """Read WAL bytes past each session's ``(segment, offset)`` cursor.

    Returns ``{"sessions": [entry, ...], "exhausted": bool}`` where
    each entry carries the session id, zero or more raw-byte chunks
    (latin-1 strings, each tagged with its segment and start offset),
    the advanced cursor, and whether the session is tombstoned.  A
    cursor pointing past a segment whose successor exists rolls over
    to it -- that is how rotation reaches the standby.  A cursor past
    the *current* end of a segment with no successor is a stale stream
    (the only way it happens is a standby outliving a data-dir swap);
    the entry gets ``reset: true`` telling the standby to resync.
    """
    if not isinstance(cursors, dict):
        cursors = {}
    budget = max(4096, min(int(max_bytes), MAX_SHIP_BYTES))
    sessions: list[dict] = []
    for session_id, directory in session_dirs(sessions_root):
        cursor = cursors.get(session_id)
        if isinstance(cursor, dict):
            segment = max(1, int(cursor.get("segment", 1)))
            offset = max(0, int(cursor.get("offset", 0)))
        else:
            segment, offset = 1, 0
        entry: dict = {
            "session": session_id,
            "closed": (directory / _TOMBSTONE).exists(),
        }
        chunks: list[dict] = []
        while budget > 0:
            path = segment_path(directory, segment)
            try:
                size = path.stat().st_size
            except OSError:
                # Cursor names a segment that does not exist (fresh
                # session starts at (1, 0) before any bytes land --
                # only reachable when segment 1 vanished underneath a
                # stale stream).
                if segment > 1 or offset > 0:
                    entry["reset"] = True
                break
            if offset > size:
                entry["reset"] = True
                chunks = []
                break
            if offset < size:
                take = min(budget, size - offset)
                with path.open("rb") as fh:
                    fh.seek(offset)
                    data = fh.read(take)
                chunks.append({
                    "segment": segment,
                    "offset": offset,
                    "data": data.decode("latin-1"),
                })
                offset += len(data)
                budget -= len(data)
                if budget <= 0:
                    break
            if offset >= size:
                if segment_path(directory, segment + 1).exists():
                    segment += 1
                    offset = 0
                    continue
                break
        if chunks:
            entry["chunks"] = chunks
        entry["cursor"] = {"segment": segment, "offset": offset}
        sessions.append(entry)
        if budget <= 0:
            break
    return {"sessions": sessions, "exhausted": budget <= 0}


# ----------------------------------------------------------------------
# Standby side: verified ingest + continuous replay
# ----------------------------------------------------------------------


class SessionReplica(WalReplay):
    """One session's live replica: cursor, local WAL copy, state.

    The invariant promotion depends on: the local segment files contain
    *exactly* the CRC-verified lines that have been replayed into
    ``self.session``, so attaching a WAL writer at ``(segment,
    offset)`` resumes appends with no gap and no overlap.  Replay is
    recovery's own apply step (:class:`WalReplay`), run incrementally.
    """

    def __init__(
        self,
        session_id: str,
        directory: Path,
        cache_size: int,
        cache_bytes: int,
    ) -> None:
        self.session_id = session_id
        self.dir = directory
        self.cache_size = cache_size
        self.cache_bytes = cache_bytes
        self._fh = None
        self.resyncs = 0
        self._reset_state()

    def _reset_state(self) -> None:
        super().__init__(
            self.session_id, SeqTracker(self.cache_size, self.cache_bytes),
            None, 0, None,
        )
        self.segment = 1
        #: Verified bytes within the current segment (== the local
        #: segment file's size).  The cursor adds the pending tail so
        #: the primary never re-ships bytes we already hold.
        self.offset = 0
        self.pending = b""

    def cursor(self) -> dict:
        return {
            "segment": self.segment,
            "offset": self.offset + len(self.pending),
        }

    def resync(self) -> None:
        """Drop everything and restart the stream from ``(1, 0)``."""
        self.close_files()
        if self.dir.is_dir():
            for path in self.dir.glob(f"{_WAL_PREFIX}*{_WAL_SUFFIX}"):
                path.unlink(missing_ok=True)
            (self.dir / _TOMBSTONE).unlink(missing_ok=True)
        self._reset_state()
        self.resyncs += 1

    def close_files(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def ingest_chunk(self, segment: int, offset: int, data: bytes) -> int:
        """Verify and replay one shipped byte range; returns bytes
        consumed into verified state (the partial tail stays pending).

        Raises :class:`ReplicationError` on a cursor mismatch or a CRC
        failure on a complete line -- the caller resyncs.
        """
        if segment < self.segment:
            return 0  # stale duplicate; already past it
        if segment > self.segment:
            # Rotation: the previous segment was sealed, which always
            # ends on a record boundary -- a leftover tail means the
            # stream lost bytes.
            if self.pending or offset != 0:
                raise ReplicationError(
                    f"rotation to segment {segment} with "
                    f"{len(self.pending)} unconsumed tail bytes"
                )
            self.close_files()
            self.segment = segment
            self.offset = 0
        expected = self.offset + len(self.pending)
        if offset != expected:
            raise ReplicationError(
                f"cursor mismatch in segment {segment}: chunk at byte "
                f"{offset}, replica at byte {expected}"
            )
        buffer = self.pending + data
        consumed = 0
        while True:
            newline = buffer.find(b"\n", consumed)
            if newline < 0:
                break
            line = buffer[consumed:newline + 1]
            record = decode_line(line)
            if record is None:
                raise ReplicationError(
                    f"CRC failure on a complete line in segment "
                    f"{segment} at byte {self.offset + consumed}"
                )
            self.apply(record)
            self._write_local(line)
            consumed = newline + 1
        self.offset += consumed
        self.pending = buffer[consumed:]
        return consumed

    def _write_local(self, line: bytes) -> None:
        if self._fh is None:
            self.dir.mkdir(parents=True, exist_ok=True)
            self._fh = segment_path(self.dir, self.segment).open("ab")
        self._fh.write(line)

    def flush_local(self) -> None:
        if self._fh is not None:
            self._fh.flush()


class ReplicaSet:
    """Every session replica one standby maintains."""

    def __init__(
        self,
        sessions_root: Path,
        cache_size: int,
        cache_bytes: int,
    ) -> None:
        self.sessions_root = Path(sessions_root)
        self.cache_size = cache_size
        self.cache_bytes = cache_bytes
        self.replicas: dict[str, SessionReplica] = {}

    def replica(self, session_id: str) -> SessionReplica:
        replica = self.replicas.get(session_id)
        if replica is None:
            replica = SessionReplica(
                session_id,
                self.sessions_root / session_dir_name(session_id),
                self.cache_size,
                self.cache_bytes,
            )
            self.replicas[session_id] = replica
        return replica

    def cursors(self) -> dict:
        return {sid: r.cursor() for sid, r in self.replicas.items()}

    def ingest(self, payload: dict) -> int:
        """Apply one ``wal-ship`` response; returns bytes consumed."""
        progressed = 0
        entries = payload.get("sessions")
        if not isinstance(entries, list):
            return 0
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            session_id = entry.get("session")
            if not isinstance(session_id, str) or not session_id:
                continue
            replica = self.replica(session_id)
            if entry.get("reset"):
                replica.resync()
                progressed += 1
                continue
            try:
                for chunk in entry.get("chunks") or []:
                    progressed += replica.ingest_chunk(
                        int(chunk.get("segment", 0)),
                        int(chunk.get("offset", -1)),
                        str(chunk.get("data", "")).encode("latin-1"),
                    )
                replica.flush_local()
            except (ReplicationError, ValueError):
                replica.resync()
                progressed += 1
        return progressed

    def catch_up(self, primary_sessions_root: Path) -> int:
        """Replay the dead primary's un-shipped WAL tail from disk.

        Only safe after the primary is fenced.  Reads each session's
        segments straight from the primary's data dir, continuing from
        the replica's cursor; sessions the stream never saw (created
        between the last poll and the crash) replay from scratch.  A
        torn final line was never acknowledged and is dropped.  Returns
        records replayed during catch-up.
        """
        before = sum(r.records for r in self.replicas.values())
        for session_id, directory in session_dirs(primary_sessions_root):
            replica = self.replica(session_id)
            for attempt in range(2):
                try:
                    self._catch_up_one(replica, directory)
                    break
                except ReplicationError:
                    if attempt == 0:
                        # The stream state disagrees with the files;
                        # rebuild this session from the primary's full
                        # WAL instead.
                        replica.resync()
                    # Second failure: mid-WAL corruption.  Keep the
                    # valid prefix, mirroring recovery's truncation.
            # Un-terminated tail bytes were never acknowledged.
            replica.pending = b""
            replica.flush_local()
        after = sum(r.records for r in self.replicas.values())
        return after - before

    def _catch_up_one(
        self, replica: SessionReplica, directory: Path
    ) -> None:
        while True:
            path = segment_path(directory, replica.segment)
            try:
                data = path.read_bytes()
            except OSError:
                return
            start = replica.offset + len(replica.pending)
            if start > len(data):
                raise ReplicationError(
                    f"replica ahead of primary segment {replica.segment}"
                )
            replica.ingest_chunk(replica.segment, start, data[start:])
            next_path = segment_path(directory, replica.segment + 1)
            if not next_path.exists():
                return
            if replica.pending:
                # A torn line mid-WAL with later segments present:
                # records past it cannot be trusted to be contiguous.
                raise ReplicationError(
                    f"torn line inside sealed segment {replica.segment}"
                )
            replica.ingest_chunk(replica.segment + 1, 0, b"")

    def prune_absent(self, primary_sessions_root: Path) -> int:
        """Drop replicas of sessions no longer on the primary's disk.

        A session migrated *off* the primary leaves a stale replica
        behind; installing it at promotion would resurrect a session
        whose authority now lives on another shard (and a later
        migrate-back would adopt the stale copy).  The primary's
        directory listing is the source of truth: anything absent is
        discarded, local files and all -- exactly what a cold
        restart-and-replay would forget.
        """
        present = {sid for sid, _ in session_dirs(primary_sessions_root)}
        dropped = 0
        for session_id in list(self.replicas):
            if session_id not in present:
                replica = self.replicas.pop(session_id)
                replica.close_files()
                shutil.rmtree(replica.dir, ignore_errors=True)
                dropped += 1
        return dropped

    def status(self) -> dict:
        return {
            "sessions": len(self.replicas),
            "records": sum(r.records for r in self.replicas.values()),
            "resyncs": sum(r.resyncs for r in self.replicas.values()),
            "closed": sum(
                1 for r in self.replicas.values()
                if r.closed_entry is not None
            ),
            "cursors": self.cursors(),
        }


# ----------------------------------------------------------------------
# The standby process
# ----------------------------------------------------------------------


class StandbyServer(PredictionServer):
    """A warm standby: a full server that replicates until promoted.

    Binds its port immediately (the shard manager records it at spawn
    time) but answers session traffic with the retryable
    ``shard-unavailable`` code until promotion -- the router never
    routes here before the swap, so the gate only matters for stray
    connections.  ``promote`` is synchronous and idempotent: stop the
    stream, catch up from the fenced primary's files, install every
    replica, start serving.
    """

    def __init__(
        self,
        config: ServerConfig,
        primary_port: int,
        primary_host: str = "127.0.0.1",
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        if config.data_dir is None:
            raise ValueError("a standby requires a data_dir")
        super().__init__(config)
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.poll_interval = max(0.001, poll_interval)
        self.replicas = ReplicaSet(
            self.durability.sessions_root,
            self.config.seq_cache_size,
            self.config.seq_cache_bytes,
        )
        self.promoted = False
        self.promotion: dict = {}
        self.replication_errors = 0
        self.ship_polls = 0
        self._repl_task: asyncio.Task | None = None

    async def start(self) -> None:
        await super().start()
        self._repl_task = asyncio.create_task(self._replicate())

    async def drain(self) -> None:
        self._stop_replication()
        await super().drain()
        for replica in self.replicas.replicas.values():
            replica.close_files()

    def _stop_replication(self) -> None:
        task, self._repl_task = self._repl_task, None
        if task is not None:
            task.cancel()

    async def _replicate(self) -> None:
        from repro.serve.client import ServeClient, ServeError

        client: ServeClient | None = None
        try:
            while True:
                if client is None:
                    try:
                        client = await ServeClient.connect(
                            self.primary_host, self.primary_port
                        )
                    except (ConnectionError, OSError):
                        self.replication_errors += 1
                        await asyncio.sleep(
                            min(1.0, self.poll_interval * 4)
                        )
                        continue
                try:
                    payload = await client.request(
                        "wal-ship",
                        cursors=self.replicas.cursors(),
                        max_bytes=DEFAULT_SHIP_BYTES,
                    )
                    self.ship_polls += 1
                    progressed = self.replicas.ingest(payload)
                except (ConnectionError, OSError,
                        asyncio.IncompleteReadError, ServeError):
                    # Primary gone (or draining): drop the connection
                    # and keep trying until promotion or a respawn.
                    self.replication_errors += 1
                    await client.close()
                    client = None
                    await asyncio.sleep(self.poll_interval)
                    continue
                await asyncio.sleep(
                    0 if progressed else self.poll_interval
                )
        except asyncio.CancelledError:
            raise
        finally:
            if client is not None:
                await client.close()

    # -- request gating -------------------------------------------------

    def execute(self, op: str, body: dict) -> dict:
        if op == "standby-status":
            return self.standby_status()
        if op == "promote":
            return self.promote(body)
        if self.promoted or op in ("ping", "stats"):
            return super().execute(op, body)
        raise SessionError(
            f"standby shard holds replicas only; not serving {op!r} "
            "until promoted",
            code="shard-unavailable",
        )

    def standby_status(self) -> dict:
        return {
            "promoted": self.promoted,
            "primary": f"{self.primary_host}:{self.primary_port}",
            "polls": self.ship_polls,
            "replication_errors": self.replication_errors,
            "replicas": self.replicas.status(),
        }

    def stats(self) -> dict:
        payload = super().stats()
        payload["standby"] = {
            "promoted": self.promoted,
            "polls": self.ship_polls,
            "replication_errors": self.replication_errors,
            "replica_sessions": len(self.replicas.replicas),
        }
        return payload

    # -- promotion ------------------------------------------------------

    def promote(self, body: dict) -> dict:
        """Become the primary (idempotent; see class docstring)."""
        if self.promoted:
            return dict(self.promotion)
        self._stop_replication()
        source = body.get("source") if isinstance(body, dict) else None
        catchup = 0
        pruned = 0
        if isinstance(source, str) and source:
            source_sessions = Path(source) / "sessions"
            catchup = self.replicas.catch_up(source_sessions)
            pruned = self.replicas.prune_absent(source_sessions)
        report = self._install_replicas()
        self.promoted = True
        self.promotion = {
            "promoted": True,
            "shard": self.config.shard_name,
            "sessions": report["sessions"],
            "closed_sessions": report["closed"],
            "replayed_records": report["records"],
            "catchup_records": catchup,
            "pruned_replicas": pruned,
        }
        return dict(self.promotion)

    def _install_replicas(self) -> dict:
        """Move every replica into the live session manager.

        Each goes through the install step crash recovery ends in
        (:meth:`~repro.serve.durability.DurabilityManager.install`):
        open sessions get a WAL writer attached at the replica's cursor
        (the local files end exactly at the last verified record), and
        a replayed close gets its tombstone finished.
        """
        installed = 0
        closed = 0
        for replica in self.replicas.replicas.values():
            replica.close_files()
            if replica.session is None:
                continue
            try:
                self.sessions.install_replayed(
                    replica, replica.segment, replica.offset
                )
                installed += 1
            except SessionError as exc:
                if exc.code != "session-closed":
                    raise
                closed += 1
        return {
            "sessions": installed, "closed": closed,
            "records": sum(
                r.records for r in self.replicas.replicas.values()
            ),
        }


__all__ = [
    "DEFAULT_POLL_INTERVAL",
    "DEFAULT_SHIP_BYTES",
    "MAX_SHIP_BYTES",
    "ReplicaSet",
    "ReplicationError",
    "SessionReplica",
    "StandbyServer",
    "ship_wal",
]
