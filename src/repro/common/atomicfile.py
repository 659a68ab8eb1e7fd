"""How a durable file is published and read back.

The one owner of file safety for every on-disk format -- trace-store
and results-DB entries, checkpoints, WAL segment headers, tombstones,
the tier state file, JSON reports: atomic publish
(:func:`atomic_write`), one sealed binary layout (:func:`write_sealed`,
:func:`unseal`), verify-or-evict reads for caches
(:func:`read_or_evict`, raising the one :class:`CorruptEntryError`),
and JSON-object state files that are read but never evicted because
their existence carries meaning (:func:`read_json_object`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import struct
from pathlib import Path
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")

#: Prefix of in-flight temporary files (:func:`remove_files` sweeps it).
_TMP_PREFIX = ".tmp-"

#: Fixed prefix of a sealed file after the magic: version, header length.
_SEALED_FIELDS = struct.Struct("<II")

#: Failures a parser raises on malformed bytes (all mean "corrupt").
_PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, struct.error)


class CorruptEntryError(ValueError):
    """An on-disk file failed structural or checksum validation."""


def atomic_write(path: Path, *parts: bytes) -> None:
    """Publish ``parts`` (concatenated) at ``path`` atomically.

    The bytes go to a unique temp sibling, are flushed and fsynced, and
    replace the target in one rename, so readers see the old file or
    the new one, never a torn one.  On any failure the target is
    untouched and the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{_TMP_PREFIX}{os.getpid()}-{secrets.token_hex(4)}-{path.name}"
    )
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str | Path, payload: Any) -> None:
    """Publish ``payload`` as indented JSON at ``path`` atomically."""
    text = json.dumps(payload, indent=2, default=str) + "\n"
    atomic_write(Path(path), text.encode("utf-8"))


def parse_json_object(raw: bytes) -> dict:
    """Decode UTF-8 JSON that must be an object.

    Raises :class:`CorruptEntryError` for anything else.
    """
    try:
        value = json.loads(str(raw, "utf-8"))
    except ValueError as exc:
        raise CorruptEntryError(f"malformed JSON: {exc}") from None
    if not isinstance(value, dict):
        raise CorruptEntryError("JSON payload is not an object")
    return value


def read_json_object(path: Path) -> dict | None:
    """A JSON-object file's contents, or ``None`` if absent or malformed."""
    try:
        return parse_json_object(Path(path).read_bytes())
    except (OSError, CorruptEntryError):
        return None


def write_sealed(
    path: Path, magic: bytes, version: int, header: dict, *body: bytes
) -> None:
    """Atomically publish a sealed file.

    Layout: ``magic | u32 LE version | u32 LE header length | JSON
    header object | body``, where ``header`` gains a ``body_sha256``
    key sealing the concatenated ``body`` parts.
    """
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    header_raw = json.dumps(
        {**header, "body_sha256": digest.hexdigest()},
        separators=(",", ":"),
    ).encode("utf-8")
    atomic_write(
        path, magic, _SEALED_FIELDS.pack(version, len(header_raw)),
        header_raw, *body,
    )


def unseal(raw: bytes, magic: bytes, version: int) -> tuple[dict, memoryview]:
    """Verify a sealed file's bytes: ``(header, body)``.

    The body is a view into ``raw`` (no copy).  Raises
    :class:`CorruptEntryError` on a foreign magic, another version, a
    truncated or non-object header, or a body checksum mismatch.
    """
    fixed = len(magic) + _SEALED_FIELDS.size
    if len(raw) < fixed or raw[:len(magic)] != magic:
        raise CorruptEntryError("bad magic")
    found, header_len = _SEALED_FIELDS.unpack_from(raw, len(magic))
    if found != version:
        raise CorruptEntryError(f"unsupported format version {found}")
    if len(raw) < fixed + header_len:
        raise CorruptEntryError("truncated header")
    view = memoryview(raw)
    header = parse_json_object(view[fixed:fixed + header_len])
    body = view[fixed + header_len:]
    if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
        raise CorruptEntryError("body checksum mismatch")
    return header, body


def read_or_evict(path: Path, parse: Callable[[bytes], _T]) -> _T:
    """``parse`` the bytes at ``path``; evict the file if they are bad.

    Raises ``OSError`` when the file is absent or unreadable (a miss)
    and :class:`CorruptEntryError` after deleting a file that ``parse``
    rejected.  Callers keep their own hit/miss/corrupt counters.
    """
    raw = Path(path).read_bytes()
    try:
        return parse(raw)
    except _PARSE_ERRORS as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        if isinstance(exc, CorruptEntryError):
            raise
        raise CorruptEntryError(f"{type(exc).__name__}: {exc}") from None


def remove_files(root: Path, pattern: str) -> int:
    """Delete the files under ``root`` matching ``pattern``, and any temp
    files crashed writers left there; returns how many were removed."""
    removed = 0
    for glob in (pattern, f"**/{_TMP_PREFIX}*"):
        for path in list(Path(root).glob(glob)):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
    return removed
