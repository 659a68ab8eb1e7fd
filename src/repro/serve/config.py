"""Serving-tier configuration that the router shares with its workers.

Standard library only: the sharded tier's router process imports this
module (and :mod:`repro.serve.protocol`) to build its workers' command
lines and to name session directories, and never loads numpy, the
predictors or the simulator.  :mod:`repro.serve.server`,
:mod:`repro.serve.session` and :mod:`repro.serve.durability` re-export
these names from where they used to be defined.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.serve import protocol

#: Responses remembered per session for replayed sequence numbers; a
#: client retrying within this window gets the cached answer instead
#: of a double execution.
SEQ_CACHE_SIZE = 256

#: Byte watermark on the same cache: entries are also evicted oldest
#: first once their (JSON-serialized) payloads exceed this, so a
#: session whose responses are large -- apply results carry one record
#: per load -- cannot grow its dedup cache with its lifetime.  The
#: newest entry is always retained regardless of size: the most recent
#: response must stay replayable or an immediate retry would fail.
SEQ_CACHE_BYTES = 256 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one :class:`~repro.serve.server.PredictionServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Bounded request queue; overflow answers with ``backpressure``.
    max_queue: int = 1024
    #: Most requests one scheduler wakeup will coalesce.
    max_batch: int = 16
    #: Queue-wait budget per request, seconds (None = unlimited).
    request_timeout: float | None = 30.0
    max_sessions: int = 64
    #: Byte budget across all sessions (estimated; None = unlimited).
    max_session_bytes: int | None = None
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Root for durable-session WALs and checkpoints; None disables
    #: durability (durable opens get ``durability-disabled`` errors).
    data_dir: str | None = None
    #: Max seconds between WAL fsyncs (0 = fsync every append).
    fsync_interval: float = 0.02
    #: WAL records between full-state checkpoints.
    checkpoint_every: int = 2000
    #: WAL segment rotation threshold, bytes.
    wal_segment_bytes: int = 1 << 20
    #: Exactly-once replay-cache bounds per session (entries / bytes).
    seq_cache_size: int = SEQ_CACHE_SIZE
    seq_cache_bytes: int = SEQ_CACHE_BYTES
    #: Identity this process reports in ``stats`` when it runs as one
    #: worker shard of a sharded tier (None = standalone server).
    shard_name: str | None = None
    #: When set, a watchdog exits the process as soon as its parent
    #: changes -- a worker shard must never outlive its router (an
    #: orphan appending to a WAL the replacement tier owns would be a
    #: split-brain writer).
    parent_pid: int | None = None


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


__all__ = [
    "SEQ_CACHE_BYTES",
    "SEQ_CACHE_SIZE",
    "ServerConfig",
    "session_dir_name",
]
