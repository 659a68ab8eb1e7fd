"""Length-prefixed binary framing for the prediction service.

Wire format, little-endian::

    +----------------+------------+--------------------+
    | length: u32 LE | type: u8   | body: UTF-8 JSON   |
    +----------------+------------+--------------------+

``length`` counts the type byte plus the body.  Three frame types:
``REQUEST`` (client -> server), ``RESPONSE`` (server -> client, carries
the request's ``id``), and ``ERROR`` (server -> client, a *stream*
level complaint not tied to any request -- garbage bytes, oversized
frames, unparsable JSON).

Exactly-once contract: mutating requests (:data:`MUTATING_OPS`) on a
*durable* session must carry a per-session monotonically increasing
``seq`` starting at the ``open`` response's ``applied_seq + 1``.  The
server write-ahead logs the request before responding, so a client
that never saw the response simply *retries the same seq*: an
already-applied seq returns the cached response (code ``seq-too-old``
past the replay window), a skipped seq returns ``seq-gap``, and a
missing seq on a durable session returns ``seq-required``.  In-memory
sessions may use the same ``seq`` field for process-lifetime dedup.

Robustness contract: a malformed frame never crashes the server and,
wherever the stream stays decodable, never kills the connection either.
An oversized frame's body is drained and discarded so framing stays
synchronized; only a declared length beyond :data:`HARD_FRAME_LIMIT`
(framing almost certainly lost -- the peer is probably not speaking
this protocol at all) closes the connection, after an ERROR frame.
"""

from __future__ import annotations

import asyncio
import json
import struct

#: Frame type tags.
REQUEST = 1
RESPONSE = 2
ERROR = 3
_TYPES = (REQUEST, RESPONSE, ERROR)

#: Default per-frame body budget; bigger frames get a structured
#: ``oversized`` error (the body is drained, the connection survives).
MAX_FRAME_BYTES = 1 << 20

#: Declared lengths beyond this are treated as stream desync: respond
#: with an ERROR frame and close.
HARD_FRAME_LIMIT = 1 << 28

#: The frame header: ``length`` then ``type``.
HEADER = struct.Struct("<IB")


class ProtocolError(Exception):
    """A framing/decoding failure with a structured error code.

    ``recoverable`` tells the server whether the stream is still
    frame-synchronized (keep the connection) or not (close it after
    reporting).
    """

    def __init__(
        self, message: str, code: str, recoverable: bool = True
    ) -> None:
        super().__init__(message)
        self.code = code
        self.recoverable = recoverable


def encode_frame(frame_type: int, body: dict) -> bytes:
    """Serialize one frame (header + type byte + JSON body)."""
    raw = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(raw) + 1, frame_type) + raw


def decode_body(frame_type: int, raw: bytes):
    """Decode a frame's type + body bytes (the part after the header)."""
    if frame_type not in _TYPES:
        raise ProtocolError(
            f"unknown frame type {frame_type}", code="bad-frame"
        )
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparsable frame body: {exc}", code="bad-json")
    return body


async def read_frame_bytes(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> tuple[int, bytes, bytes]:
    """Read one frame undecoded: ``(type, header bytes, body bytes)``.

    Raises :class:`ProtocolError` on a malformed header -- after
    draining an oversized body, so framing stays aligned -- and
    :class:`asyncio.IncompleteReadError` at clean or mid-frame EOF
    (nothing to respond to -- the caller just closes).  A router
    forwards ``header + body`` as it came.
    """
    header = await reader.readexactly(HEADER.size)
    length, frame_type = HEADER.unpack(header)
    if length < 1:
        raise ProtocolError("zero-length frame", code="bad-frame")
    body_len = length - 1
    if body_len > max_frame:
        if length > HARD_FRAME_LIMIT:
            raise ProtocolError(
                f"declared frame length {length} exceeds the hard limit "
                f"({HARD_FRAME_LIMIT}); closing desynchronized stream",
                code="oversized", recoverable=False,
            )
        # Drain the declared body so framing stays aligned, then report.
        remaining = body_len
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            remaining -= len(chunk)
        raise ProtocolError(
            f"frame of {body_len} bytes exceeds the {max_frame}-byte "
            "limit", code="oversized",
        )
    return frame_type, header, await reader.readexactly(body_len)


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> tuple[int, dict]:
    """Read and decode one frame (see :func:`read_frame_bytes`)."""
    frame_type, _, raw = await read_frame_bytes(reader, max_frame)
    return frame_type, decode_body(frame_type, raw)


async def write_frame(
    writer: asyncio.StreamWriter,
    frame_type: int,
    body: dict,
    drain: bool = True,
) -> None:
    """Write one frame, optionally awaiting the flow-control drain."""
    writer.write(encode_frame(frame_type, body))
    if drain:
        await writer.drain()


# ----------------------------------------------------------------------
# Request/response vocabulary
# ----------------------------------------------------------------------

#: Operations the server understands (``release``/``adopt`` are the
#: migration admin verbs: quiesce a durable session to disk / accept a
#: migrated-in one).
OPS = (
    "open", "close", "apply", "predict", "train", "stats", "ping",
    "release", "adopt", "wal-ship",
)

#: Extra operations only the sharded tier's router answers itself.
ROUTER_OPS = ("shards", "migrate")

#: Extra operations only a warm standby answers (``wal-ship`` is the
#: primary side of the same replication stream; see
#: :mod:`repro.serve.standby`).
STANDBY_OPS = ("standby-status", "promote")

#: Session-mutating operations: WAL-logged on durable sessions and
#: subject to the ``seq`` exactly-once contract (``open`` is durably
#: logged too, but is idempotent by construction rather than by seq).
MUTATING_OPS = ("apply", "predict", "train", "close")


def validate_request(body) -> tuple[int, str]:
    """Check a REQUEST body's envelope; returns ``(id, op)``.

    Raises :class:`ProtocolError` (recoverable) so the server can send
    a structured complaint and keep the connection.
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request body must be an object, got "
            f"{type(body).__name__}", code="bad-request",
        )
    request_id = body.get("id")
    if (not isinstance(request_id, int) or isinstance(request_id, bool)
            or request_id < 0):
        raise ProtocolError(
            f"request needs a non-negative int 'id', got {request_id!r}",
            code="bad-request",
        )
    # The op is NOT validated here: once the envelope has a usable id,
    # an unknown op becomes a per-request error RESPONSE (carrying that
    # id) rather than a stream-level ERROR frame.
    return request_id, body.get("op")


def ok_response(request_id: int, result: dict) -> dict:
    """A successful RESPONSE body for one request."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    code: str, message: str, request_id: int | None = None
) -> dict:
    """A structured error body; with no ``request_id`` it is a stream
    ERROR frame, with one it is a per-request failure RESPONSE."""
    body = {"ok": False, "error": {"code": code, "message": message}}
    if request_id is not None:
        body["id"] = request_id
    return body


__all__ = [
    "ERROR",
    "HARD_FRAME_LIMIT",
    "HEADER",
    "MAX_FRAME_BYTES",
    "MUTATING_OPS",
    "OPS",
    "ProtocolError",
    "REQUEST",
    "RESPONSE",
    "ROUTER_OPS",
    "STANDBY_OPS",
    "decode_body",
    "encode_frame",
    "error_response",
    "ok_response",
    "read_frame",
    "read_frame_bytes",
    "validate_request",
    "write_frame",
]
