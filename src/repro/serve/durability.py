"""Durability and crash recovery for the serving layer.

Every state-mutating request on a *durable* session (``open``,
``apply``, ``predict``, ``train``, ``close``) is appended to a
per-session write-ahead log **before** it executes -- and therefore
before its response frame is written -- so a server killed at any
instant can rebuild every acknowledged byte of session state by
replay.  The paper's update rules are fully deterministic (epoch-based
accuracy throttling, smart-training order, fusion reallocation), which
is what makes replay-based recovery *bit-exact* rather than
best-effort: ``tests/test_durability.py`` proves a recovered session
and an uninterrupted one emit identical per-load decision records.

On-disk layout, under ``--data-dir``::

    data_dir/sessions/<safe-id>/
        wal-00000001.log     CRC-tagged JSONL segments (rotated)
        checkpoint.ckpt      header JSON + pickled session state
        closed.json          tombstone: final seq + cached response

**WAL format.**  One record per line: ``crc32(json) as 8 hex chars, a
space, then the compact JSON record`` -- ``{"seq": N, "op": ...,
"body": {...}}``.  Appends are flushed to the OS on every record
(surviving SIGKILL) and fsync'd in batches no further apart than
``fsync_interval`` seconds (``0`` = every append; batching trades a
bounded power-loss window for throughput).  Segments start with a
header record naming the session and rotate at ``segment_bytes``.  A
torn or bit-rotted tail record fails its CRC; recovery truncates the
file back to the last intact record and counts it.

**Checkpoints.**  Every ``checkpoint_every`` WAL records the full
session state (predictor + raw histories + memory image + pending
predictions, one pickled object graph) is checkpointed, bounding
recovery cost to one unpickle plus the WAL tail.  A corrupt checkpoint
is evicted and recovery falls back to full replay from the ``open``
record -- WAL segments are retained for exactly this reason.

Segment headers, checkpoints (a sealed file) and tombstones are
published and verified by :mod:`repro.common.atomicfile`.

**Exactly-once.**  Each handle owns the session's
:class:`~repro.serve.session.SeqTracker`; replaying the WAL rebuilds
both the state *and* the response cache, so a client retrying a
request the server applied just before dying gets the original
response, not a double execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from zlib import crc32

from repro.common.atomicfile import (
    CorruptEntryError,
    atomic_write,
    atomic_write_json,
    read_json_object,
    read_or_evict,
    unseal,
    write_sealed,
)
from repro.common.hashing import stable_digest
from repro.serve.session import (
    SEQ_CACHE_BYTES,
    SEQ_CACHE_SIZE,
    PredictorSession,
    SeqTracker,
    SessionError,
    _resolve_initial_memory,
    execute_op,
)

#: WAL line layout version; bump on any format change.
WAL_FORMAT = 1

#: Checkpoint layout version; bump on any format change.  Format 3
#: pickles predictor tables as per-field column lists; format 4 pickles
#: a lone-component session as a one-component composite; format 5
#: pickles outstanding predict decisions as mutable slots records;
#: format 6 drops the folded-register field from those records; format 7
#: pickles E-VTAGE tables as per-field column lists; format 8 pickles an
#: EVES session's predictor as the bare ``EvesPredictor`` host; format 9
#: pickles outstanding predict decisions as flat lists of ints (the
#: ``LoadProbe``/``Prediction``/``CompositeDecision`` records are gone)
#: and a composite's statistics as mask-indexed counts beside its
#: name-keyed view.
CHECKPOINT_FORMAT = 9

_WAL_PREFIX = "wal-"
_WAL_SUFFIX = ".log"
_CHECKPOINT = "checkpoint.ckpt"
_TOMBSTONE = "closed.json"
_CKPT_MAGIC = b"RLVPCKP\x01"

#: Ops that mutate session state and therefore hit the WAL.
MUTATING_OPS = ("open", "apply", "predict", "train", "close")


class ReplicationError(Exception):
    """A WAL record stream went inconsistent: a seq gap, a record before
    its session's ``open``, or (on a standby) a cursor or CRC mismatch."""


def session_dir_name(session_id: str) -> str:
    """The on-disk directory name for one session id.

    Deterministic and shared with the router, which moves these
    directories between shard data-dirs during live migration.
    """
    safe = "".join(
        c if c.isalnum() or c in "-_" else "_" for c in session_id
    )[:48]
    digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:12]
    return f"{safe}-{digest}"


@dataclass
class DurabilityStats:
    """Server-wide durability counters (the ``stats`` RPC's view)."""

    wal_appends: int = 0
    wal_bytes: int = 0
    wal_fsyncs: int = 0
    wal_segments: int = 0
    checkpoint_count: int = 0
    checkpoint_bytes: int = 0
    checkpoint_failures: int = 0
    recovered_sessions: int = 0
    replayed_records: int = 0
    corrupt_tail_records: int = 0
    spills: int = 0
    closed_sessions: int = 0
    durable_opens: int = 0

    def as_dict(self) -> dict:
        return {
            "wal_appends": self.wal_appends,
            "wal_bytes": self.wal_bytes,
            "wal_fsyncs": self.wal_fsyncs,
            "wal_segments": self.wal_segments,
            "checkpoint_count": self.checkpoint_count,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_failures": self.checkpoint_failures,
            "recovered_sessions": self.recovered_sessions,
            "replayed_records": self.replayed_records,
            "corrupt_tail_records": self.corrupt_tail_records,
            "spills": self.spills,
            "closed_sessions": self.closed_sessions,
            "durable_opens": self.durable_opens,
        }


# ----------------------------------------------------------------------
# WAL record encoding
# ----------------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """One WAL line: ``crc32-hex8 SP compact-json LF``."""
    raw = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x " % crc32(raw) + raw + b"\n"


def decode_line(line: bytes) -> dict | None:
    """Decode one WAL line; ``None`` for torn/corrupt/foreign bytes."""
    if len(line) < 11 or not line.endswith(b"\n") or line[8:9] != b" ":
        return None
    raw = line[9:-1]
    try:
        if crc32(raw) != int(line[:8], 16):
            return None
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def scan_wal_file(path: Path) -> tuple[list[dict], int, int]:
    """Read one segment: ``(records, valid_bytes, dropped_lines)``.

    ``valid_bytes`` is the offset of the first byte past the last
    intact record -- the truncation point for tail-corruption repair.
    Everything from the first bad line on is dropped (records are only
    meaningful in unbroken order).
    """
    records: list[dict] = []
    valid = 0
    dropped = 0
    try:
        data = path.read_bytes()
    except OSError:
        return records, 0, 0
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            dropped += 1  # torn final line (no newline ever made it)
            break
        record = decode_line(data[offset:newline + 1])
        if record is None:
            dropped += 1 + data.count(b"\n", newline + 1)
            break
        records.append(record)
        offset = newline + 1
        valid = offset
    return records, valid, dropped


def segment_path(directory: Path, index: int) -> Path:
    """The WAL segment file ``index`` of one session directory."""
    return directory / f"{_WAL_PREFIX}{index:08d}{_WAL_SUFFIX}"


def session_dirs(sessions_root: Path) -> list[tuple[str, Path]]:
    """Sorted ``(session_id, directory)`` pairs under ``sessions_root``.

    The id comes from the first segment's header line.  When that line
    is unreadable, an intact checkpoint's header names the session
    too; its id is trusted only if it maps to this directory's name.
    A directory with neither is skipped.
    """
    root = Path(sessions_root)
    found = []
    for directory in sorted(root.iterdir()) if root.is_dir() else []:
        try:
            with segment_path(directory, 1).open("rb") as fh:
                record = decode_line(fh.readline())
        except OSError:  # no segment yet, or not a directory
            continue
        session_id = None
        if record is not None and record.get("op") == "_segment":
            session_id = record.get("session")
        if not (isinstance(session_id, str) and session_id):
            session_id = _checkpoint_session(directory)
            if (session_id is None
                    or session_dir_name(session_id) != directory.name):
                continue
        found.append((session_id, directory))
    return found


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


def write_checkpoint(path: Path, header: dict, blob: bytes) -> None:
    """Atomically persist one checkpoint: ``header`` sealing ``blob``."""
    write_sealed(path, _CKPT_MAGIC, CHECKPOINT_FORMAT, header, blob)


def _checkpoint_session(directory: Path) -> str | None:
    """The session id an intact checkpoint in ``directory`` names
    (``None`` when there is none).  Reads without evicting."""
    try:
        header, _ = unseal(
            (directory / _CHECKPOINT).read_bytes(), _CKPT_MAGIC,
            CHECKPOINT_FORMAT,
        )
    except (OSError, CorruptEntryError):
        return None
    session_id = header.get("session")
    return session_id if isinstance(session_id, str) and session_id else None


def load_checkpoint(path: Path) -> tuple[dict, memoryview] | None:
    """Load and verify one checkpoint; ``None`` (and evict) if corrupt."""
    try:
        return read_or_evict(
            path, lambda raw: unseal(raw, _CKPT_MAGIC, CHECKPOINT_FORMAT)
        )
    except (OSError, CorruptEntryError):
        return None


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


class WalReplay:
    """Rebuilds one session from its WAL records, one record at a time.

    The apply step crash recovery and warm standbys share: seqs must be
    contiguous from ``base_seq + 1`` (already-covered records are
    skipped), the ``open`` record builds the session, every other op
    re-executes through :func:`~repro.serve.session.execute_op` -- the
    live server's own executor -- and the exactly-once response cache
    is rebuilt alongside the state.  A replayed successful ``close`` is
    kept in :attr:`closed_entry`; :meth:`DurabilityManager.install`
    finishes it.
    """

    def __init__(
        self,
        session_id: str,
        tracker: SeqTracker,
        session: PredictorSession | None,
        base_seq: int,
        spec_digest: str | None,
    ) -> None:
        self.session_id = session_id
        self.tracker = tracker
        self.session = session
        self.spec_digest = spec_digest
        self.expected = base_seq + 1
        self.closed_entry: tuple | None = None
        #: Records applied (skipped ones not counted).
        self.records = 0

    def apply(self, record: dict) -> None:
        """Replay one decoded record.

        Raises :class:`ReplicationError` on a seq gap or a record that
        precedes any ``open``: nothing past that point can be trusted.
        """
        seq = record.get("seq")
        op = record.get("op")
        if op == "_segment" or not isinstance(seq, int):
            return
        body = record.get("body") or {}
        if seq < self.expected:
            # Already covered (by a checkpoint that may lack the spec
            # digest the open record carries).
            if op == "open" and self.spec_digest is None:
                self.spec_digest = stable_digest(body.get("spec"))
            return
        if seq != self.expected:
            raise ReplicationError(
                f"seq gap in WAL stream: expected {self.expected}, "
                f"got {seq}"
            )
        if op == "open":
            if self.session is None:
                self.session = PredictorSession(
                    body.get("spec"),
                    session_id=self.session_id,
                    initial_memory=_resolve_initial_memory(
                        body.get("workload")
                    ) if body.get("workload") is not None else None,
                )
            self.spec_digest = stable_digest(body.get("spec"))
            entry = ("ok", {"session": self.session_id})
        elif self.session is None:
            raise ReplicationError(
                f"record seq {seq} ({op!r}) arrived before any open "
                "record"
            )
        else:
            entry = execute_op(self.session, op, body)
            if op == "close" and entry[0] == "ok":
                self.closed_entry = entry
        self.tracker.record(seq, entry)
        self.records += 1
        self.expected = seq + 1


class SessionDurability:
    """One durable session's WAL writer, checkpointer, and seq state."""

    def __init__(
        self,
        manager: "DurabilityManager",
        session_id: str,
        directory: Path,
        tracker: SeqTracker,
    ) -> None:
        self.manager = manager
        self.session_id = session_id
        self.dir = directory
        self.tracker = tracker
        self.spec_digest: str | None = None
        self._fh = None
        self._segment = 0
        self._segment_bytes = 0
        self._last_fsync = time.monotonic()
        self._fsync_pending = False
        self.records_since_checkpoint = 0

    # -- appending ------------------------------------------------------

    def append(self, seq: int, op: str, body: dict) -> None:
        """Durably append one record *before* the op executes."""
        data = encode_record({"seq": seq, "op": op, "body": body})
        if (self._fh is None
                or self._segment_bytes + len(data)
                > self.manager.segment_bytes):
            self._rotate()
        self._fh.write(data)
        self._fh.flush()  # reaches the OS: survives SIGKILL
        self._segment_bytes += len(data)
        stats = self.manager.stats
        stats.wal_appends += 1
        stats.wal_bytes += len(data)
        self.maybe_fsync()

    def maybe_fsync(self, force: bool = False) -> None:
        """Group-commit fsync: at most one per ``fsync_interval``."""
        if self._fh is None:
            return
        self._fsync_pending = True
        interval = self.manager.fsync_interval
        now = time.monotonic()
        if force or interval <= 0 or now - self._last_fsync >= interval:
            os.fsync(self._fh.fileno())
            self._last_fsync = now
            self._fsync_pending = False
            self.manager.stats.wal_fsyncs += 1

    def _rotate(self) -> None:
        """Publish the next segment's header atomically, then append."""
        if self._fh is not None:
            self.maybe_fsync(force=True)
            self._fh.close()
        self._segment += 1
        path = segment_path(self.dir, self._segment)
        header = encode_record({
            "op": "_segment", "segment": self._segment,
            "session": self.session_id, "format": WAL_FORMAT,
        })
        atomic_write(path, header)
        self._fh = path.open("ab")
        self._segment_bytes = len(header)
        self.manager.stats.wal_segments += 1
        self.manager.stats.wal_bytes += len(header)

    def attach_segment(self, index: int, size: int) -> None:
        """Continue appending to a recovered (tail-repaired) segment."""
        self._segment = index
        self._segment_bytes = size
        self._fh = segment_path(self.dir, index).open("ab")

    # -- record lifecycle ----------------------------------------------

    def after_record(self, session: PredictorSession) -> None:
        """Post-execution bookkeeping: fsync cadence + checkpoint cadence."""
        self.maybe_fsync()
        self.records_since_checkpoint += 1
        if self.records_since_checkpoint >= self.manager.checkpoint_every:
            self.checkpoint(session)

    def checkpoint(self, session: PredictorSession) -> None:
        """Serialize full session state; bounds replay on recovery."""
        # The WAL must be on disk before a checkpoint claims its seq.
        self.maybe_fsync(force=True)
        blob = pickle.dumps(
            session.capture_state(), protocol=pickle.HIGHEST_PROTOCOL
        )
        header = {
            "session": self.session_id,
            "seq": self.tracker.applied_seq,
            "counters": session.counters(),
            "spec_digest": self.spec_digest,
            # The exactly-once response cache rides along: a client
            # retrying across a spill/recover still gets its answer.
            "seq_cache": self.tracker.export_entries(),
            # ... under the same watermark bounds it ran with, so the
            # replay window survives spill/restart/recovery unchanged.
            "seq_cache_policy": self.tracker.export_policy(),
        }
        write_checkpoint(self.dir / _CHECKPOINT, header, blob)
        self.records_since_checkpoint = 0
        self.manager.stats.checkpoint_count += 1
        self.manager.stats.checkpoint_bytes += len(blob)

    def close_files(self) -> None:
        if self._fh is not None:
            self.maybe_fsync(force=True)
            self._fh.close()
            self._fh = None


class DurabilityManager:
    """All durable-session state under one ``--data-dir``."""

    def __init__(
        self,
        root: str | Path,
        fsync_interval: float = 0.02,
        checkpoint_every: int = 2000,
        segment_bytes: int = 1 << 20,
        cache_size: int = SEQ_CACHE_SIZE,
        cache_bytes: int = SEQ_CACHE_BYTES,
    ) -> None:
        self.root = Path(root)
        self.sessions_root = self.root / "sessions"
        self.fsync_interval = max(0.0, fsync_interval)
        self.checkpoint_every = max(1, checkpoint_every)
        self.segment_bytes = max(4096, segment_bytes)
        self.cache_size = cache_size
        self.cache_bytes = cache_bytes
        self.stats = DurabilityStats()
        self._handles: dict[str, SessionDurability] = {}

    # -- identity -------------------------------------------------------

    def session_dir(self, session_id: str) -> Path:
        return self.sessions_root / session_dir_name(session_id)

    def exists(self, session_id: str) -> bool:
        """True when a recoverable (non-closed) session is on disk."""
        if session_id in self._handles:
            return True
        directory = self.session_dir(session_id)
        if (directory / _TOMBSTONE).exists():
            return False
        return any(directory.glob(f"{_WAL_PREFIX}*{_WAL_SUFFIX}"))

    def check_not_closed(self, session_id: str) -> None:
        if (self.session_dir(session_id) / _TOMBSTONE).exists():
            raise SessionError(
                f"durable session {session_id!r} was closed and cannot "
                "be reopened",
                code="session-closed",
            )

    def handle(self, session_id: str) -> SessionDurability | None:
        return self._handles.get(session_id)

    def spec_matches(self, session_id: str, spec) -> bool:
        handle = self._handles.get(session_id)
        if handle is None or handle.spec_digest is None:
            return True  # nothing recorded to compare against
        return handle.spec_digest == stable_digest(spec)

    def scan_ids(self) -> list[str]:
        """Session ids of every recoverable directory under the root."""
        return [
            session_id
            for session_id, directory in session_dirs(self.sessions_root)
            if not (directory / _TOMBSTONE).exists()
        ]

    # -- lifecycle ------------------------------------------------------

    def create(
        self,
        session_id: str,
        spec,
        workload,
        tracker: SeqTracker,
    ) -> SessionDurability:
        """Start a fresh durable session: directory + ``open`` record."""
        directory = self.session_dir(session_id)
        directory.mkdir(parents=True, exist_ok=True)
        handle = SessionDurability(self, session_id, directory, tracker)
        handle.spec_digest = stable_digest(spec)
        handle.append(1, "open", {"spec": spec, "workload": workload})
        handle.maybe_fsync(force=True)
        self._handles[session_id] = handle
        self.stats.durable_opens += 1
        return handle

    def spill(self, session: PredictorSession) -> None:
        """Evict-to-disk: checkpoint + flush, then drop the handle."""
        handle = self._handles.pop(session.session_id, None)
        if handle is None:
            return
        handle.checkpoint(session)
        handle.close_files()
        self.stats.spills += 1

    def release(self, session_id: str) -> None:
        """Drop a handle without checkpointing (close path)."""
        handle = self._handles.pop(session_id, None)
        if handle is not None:
            handle.close_files()

    def finalize_close(self, session_id: str, seq: int, entry: tuple) -> None:
        """Tombstone a closed session: final seq + cached response."""
        directory = self.session_dir(session_id)
        atomic_write_json(
            directory / _TOMBSTONE,
            {"session": session_id, "seq": seq, "entry": list(entry)},
        )
        self.release(session_id)
        self.stats.closed_sessions += 1

    def closed_response(self, session_id: str, seq) -> tuple | None:
        """The tombstoned response for a retried ``close`` (or None)."""
        tombstone = read_json_object(self.session_dir(session_id) / _TOMBSTONE)
        if tombstone is not None and tombstone.get("seq") == seq:
            entry = tombstone.get("entry")
            if isinstance(entry, list) and entry:
                return tuple(entry)
        return None

    def close_all(self) -> None:
        """Flush and close every live handle (server shutdown)."""
        for session_id in list(self._handles):
            self.release(session_id)

    def wal_disk_bytes(self) -> int:
        """Total on-disk WAL + checkpoint bytes across all sessions."""
        total = 0
        if self.sessions_root.is_dir():
            for path in self.sessions_root.rglob("*"):
                try:
                    if path.is_file():
                        total += path.stat().st_size
                except OSError:
                    continue
        return total

    # -- recovery -------------------------------------------------------

    def recover(self, session_id: str) -> PredictorSession:
        """Rebuild one session: checkpoint (if intact) + WAL replay.

        Falls back to full replay from the ``open`` record when the
        checkpoint is corrupt, cuts the log where replay finds it
        broken (see :meth:`_replay_segments`), rebuilds the
        exactly-once response cache, and reattaches the WAL writer to
        the repaired tail segment.
        """
        directory = self.session_dir(session_id)
        self.check_not_closed(session_id)
        segments = self._scan_segments(directory)

        # Without a usable checkpoint: full replay from the open record.
        replay = WalReplay(session_id,
                           SeqTracker(self.cache_size, self.cache_bytes),
                           None, 0, None)
        loaded = load_checkpoint(directory / _CHECKPOINT)
        if loaded is not None:
            header, blob = loaded
            try:
                session = PredictorSession.restore(
                    session_id, pickle.loads(blob), header.get("counters", {})
                )
                base_seq = int(header.get("seq", 0))
                # Resume the exactly-once state where the checkpoint
                # left it; WAL replay extends it from base_seq on.
                tracker = SeqTracker(self.cache_size, self.cache_bytes)
                tracker.load_entries(
                    base_seq, header.get("seq_cache"),
                    header.get("seq_cache_policy"),
                )
                replay = WalReplay(session_id, tracker, session, base_seq,
                                   header.get("spec_digest"))
            except Exception:
                self.stats.checkpoint_failures += 1
        if loaded is None and (directory / _CHECKPOINT).exists():
            # load_checkpoint evicts corrupt files, so reaching here
            # means eviction failed; count it either way.
            self.stats.checkpoint_failures += 1

        last_segment, last_size = self._replay_segments(replay, segments)
        return self.install(replay, last_segment, last_size)

    def install(
        self, replay: WalReplay, segment: int, size: int
    ) -> PredictorSession:
        """Turn a finished replay into a live durable session.

        The one install step crash recovery and standby promotion
        share.  A replayed close was logged but its tombstone never
        landed: finish the close and raise ``session-closed`` instead
        of resurrecting the session.  Otherwise attach a WAL writer at
        ``(segment, size)``, the end of the last verified record --
        whenever a segment exists, even an empty one, so the next
        append never rotates back over segment 1.
        """
        session_id = replay.session_id
        session = replay.session
        if session is None:
            raise SessionError(
                f"durable session {session_id!r} has no recoverable "
                "state",
                code="unrecoverable",
            )
        if replay.closed_entry is not None:
            self.finalize_close(session_id, replay.tracker.applied_seq,
                                replay.closed_entry)
            raise SessionError(
                f"durable session {session_id!r} was closed and cannot "
                "be reopened",
                code="session-closed",
            )
        session.durable = True
        session.tracker = replay.tracker
        handle = SessionDurability(self, session_id,
                                   self.session_dir(session_id),
                                   replay.tracker)
        handle.spec_digest = replay.spec_digest
        if segment:
            handle.attach_segment(segment, size)
        self._handles[session_id] = handle
        self.stats.recovered_sessions += 1
        self.stats.replayed_records += replay.records
        return session

    def _scan_segments(self, directory: Path) -> list[tuple]:
        """Every WAL segment of ``directory`` in order, as ``(index,
        path, intact records, valid bytes, dropped lines)``
        (:func:`scan_wal_file`); dropped lines are counted here."""
        segments = []
        for path in sorted(directory.glob(f"{_WAL_PREFIX}*{_WAL_SUFFIX}")):
            try:
                index = int(path.name[len(_WAL_PREFIX):-len(_WAL_SUFFIX)])
            except ValueError:
                continue
            records, valid, dropped = scan_wal_file(path)
            self.stats.corrupt_tail_records += dropped
            segments.append((index, path, records, valid, dropped))
        return segments

    def _replay_segments(
        self, replay: WalReplay, segments: list[tuple]
    ) -> tuple[int, int]:
        """Replay the scanned segments; return the append tail
        ``(segment index, size)``.

        The corruption policy: a torn segment (a CRC failure) loses the
        records from its tear on, but that ends the usable log only if
        replay then finds a gap -- records the checkpoint already
        covers may be lost harmlessly.  When the first record of a
        segment breaks the seq chain, the log is cut at the end of the
        previous segment's intact records: that segment is truncated
        there and every later segment is dropped, since records past a
        gap cannot be trusted to be contiguous.  A torn final segment
        is truncated the same way, so appends continue after its last
        intact record.
        """
        last_index = last_size = 0
        for position, (index, path, records, valid, _) in enumerate(segments):
            try:
                for record in records:
                    replay.apply(record)
            except ReplicationError:
                # Records the replay needed were lost before this
                # segment (appends are contiguous within one), so the
                # log ends at the previous segment's last intact record.
                self.stats.corrupt_tail_records += 1
                if position:
                    _truncate(segments[position - 1][1], last_size)
                    for stale in segments[position:]:
                        with contextlib.suppress(OSError):
                            stale[1].unlink(missing_ok=True)
                break
            last_index, last_size = index, valid
        else:
            if segments and segments[-1][4]:
                _truncate(segments[-1][1], segments[-1][3])
        return last_index, last_size


def _truncate(path: Path, size: int) -> None:
    """Cut one WAL segment back to ``size`` bytes (best effort)."""
    with contextlib.suppress(OSError), path.open("rb+") as fh:
        fh.truncate(size)


__all__ = [
    "CHECKPOINT_FORMAT",
    "MUTATING_OPS",
    "WAL_FORMAT",
    "DurabilityManager",
    "DurabilityStats",
    "ReplicationError",
    "SessionDurability",
    "WalReplay",
    "decode_line",
    "encode_record",
    "load_checkpoint",
    "scan_wal_file",
    "segment_path",
    "session_dir_name",
    "session_dirs",
    "write_checkpoint",
]
