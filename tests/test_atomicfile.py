"""One torn-write and corruption matrix for every on-disk format.

Every published file goes through :mod:`repro.common.atomicfile`; this
suite holds each format's reader to its contract under the same damage:
truncation at every byte boundary, a flipped byte in the header and in
the body, a foreign magic, and a well-formed but non-object header.
Cache entries (trace store, results DB) and checkpoints are evicted and
read as a miss; a WAL segment yields an intact prefix of its records;
the tombstone and the tier state file read as absent and stay on disk
(their existence carries meaning).  No reader ever raises.  Writers
interrupted mid-write leave the old file intact and no temp file.
"""

import json
import os
import re
from pathlib import Path
from zlib import crc32

import pytest
from _ondisk import swap_sealed_header

from repro.common import atomicfile
from repro.common.atomicfile import (
    atomic_write,
    atomic_write_json,
    read_or_evict,
)
from repro.harness.resultsdb import ResultsDb
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.serve.durability import (
    DurabilityManager,
    encode_record,
    load_checkpoint,
    scan_wal_file,
    segment_path,
    session_dirs,
    write_checkpoint,
)
from repro.serve.session import SeqTracker, SessionError
from repro.serve.shardmgr import STATE_FILE, ShardManager, read_state
from repro.workloads.generator import generate_trace

SPEC = {"kind": "component", "name": "lvp", "entries": 64}


class Interrupted(Exception):
    """Raised inside an atomic write to simulate a crash mid-write."""


class _CrashingOs:
    """``os`` for :mod:`atomicfile` whose fsync dies mid-write."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def fsync(fd):
        raise Interrupted("crash before the temp file was synced")


def _flip(raw: bytes, offset: int) -> bytes:
    return raw[:offset] + bytes([raw[offset] ^ 0xFF]) + raw[offset + 1:]


# ----------------------------------------------------------------------
# Per-format adapters: write a valid file, read it back, judge damage
# ----------------------------------------------------------------------


class SealedFile:
    """Sealed files (magic, version, header, body): damage -> evicted."""

    #: A JSON document, whose trailing newline is not part of the data.
    json_document = False

    def assert_damaged(self, result, path: Path) -> None:
        assert result is None
        assert not path.exists()

    def spans(self, raw: bytes) -> tuple[int, int]:
        """One byte offset inside the header, one inside the body."""
        return raw.index(b'{"') + 2, len(raw) - 1

    def foreign(self, raw: bytes) -> bytes:
        return b"NOTMAGIC" + raw[8:]

    def non_object(self, raw: bytes) -> bytes:
        return swap_sealed_header(raw, b"[]")


class TraceEntry(SealedFile):
    """A trace-store entry: corrupt -> evicted, counted, a miss."""

    name = "trace-store"

    def __init__(self, root: Path) -> None:
        from repro.workloads.store import TraceStore

        self.store = TraceStore(root)
        generated = generate_trace("mcf", 100, 1)
        memory = MemoryImage()
        memory.write(0x1000, 8, 42)
        self.trace = Trace(name="tiny", instructions=generated.instructions,
                           seed=1, initial_memory=memory)

    def write(self) -> Path:
        return self.store.save(self.trace, 100, 1)

    def read(self, path: Path):
        return self.store.load("tiny", 100, 1, 1)

    def assert_intact(self, result, path: Path) -> None:
        assert result is not None
        assert result.instructions == self.trace.instructions


class ResultsEntry:
    """A results-DB entry: corrupt -> evicted, counted, a miss."""

    name = "results-db"
    json_document = True
    fingerprint = "ab" * 32
    value = {"ipc": 1.25, "cells": [1, 2, 3]}

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self) -> Path:
        db = ResultsDb(self.root)
        assert db.store(self.fingerprint, self.value, meta={"fn": "x:y"})
        return db.entry_path(self.fingerprint)

    def read(self, path: Path):
        return ResultsDb(self.root).lookup(self.fingerprint)  # no memo

    def assert_intact(self, result, path: Path) -> None:
        assert result == (True, self.value)

    def assert_damaged(self, result, path: Path) -> None:
        assert result == (False, None)
        assert not path.exists()

    def spans(self, raw: bytes) -> tuple[int, int]:
        return raw.index(b'"magic"') + 3, raw.index(b'"cells"') + 3

    def foreign(self, raw: bytes) -> bytes:
        return raw.replace(b'"repro-resultsdb"', b'"another-format"')

    def non_object(self, raw: bytes) -> bytes:
        return b"[]\n"


class Checkpoint(SealedFile):
    """A session checkpoint: corrupt -> evicted, full WAL replay."""

    name = "checkpoint"

    def __init__(self, root: Path) -> None:
        self.path = root / "checkpoint.ckpt"

    def write(self) -> Path:
        write_checkpoint(self.path, {"session": "s", "seq": 3},
                         b"pickled state" * 8)
        return self.path

    def read(self, path: Path):
        return load_checkpoint(path)

    def assert_intact(self, result, path: Path) -> None:
        header, blob = result
        assert header["seq"] == 3 and blob == b"pickled state" * 8


class WalSegment:
    """A WAL segment: damage keeps an intact prefix; never evicted."""

    name = "wal-segment"
    json_document = False

    def __init__(self, root: Path) -> None:
        self.manager = DurabilityManager(root, fsync_interval=0.0)

    def write(self) -> Path:
        handle = self.manager.create("s", SPEC, None, SeqTracker())
        for seq in (2, 3, 4):
            handle.append(seq, "apply", {"events": []})
        self.manager.close_all()
        return segment_path(self.manager.session_dir("s"), 1)

    def read(self, path: Path):
        records, valid, _ = scan_wal_file(path)
        ids = [sid for sid, d in session_dirs(path.parent.parent)
               if d == path.parent]
        return (ids or [None])[0], records, valid

    def assert_intact(self, result, path: Path) -> None:
        session_id, records, _ = result
        assert session_id == "s"
        assert [r.get("seq") for r in records] == [None, 1, 2, 3, 4]

    def assert_damaged(self, result, path: Path) -> None:
        session_id, records, valid = result
        assert valid <= path.stat().st_size
        if session_id is None:
            return  # recovery and shipping skip the directory
        assert session_id == "s"
        intact = [None, 1, 2, 3, 4]
        seqs = [r.get("seq") for r in records]
        assert seqs == intact[:len(seqs)] and len(seqs) < len(intact)

    def spans(self, raw: bytes) -> tuple[int, int]:
        first_line = raw.index(b"\n")
        return first_line // 2, len(raw) - 5

    def foreign(self, raw: bytes) -> bytes:
        rest = raw[raw.index(b"\n") + 1:]
        return encode_record({"op": "other-format", "session": "s"}) + rest

    def non_object(self, raw: bytes) -> bytes:
        rest = raw[raw.index(b"\n") + 1:]
        return b"%08x []\n" % crc32(b"[]") + rest


class JsonStateFile:
    """Plain JSON state files have no magic; any damage reads as absent."""

    json_document = True

    def spans(self, raw: bytes) -> tuple[int, int]:
        return tuple(raw.index(key) + 2 for key in self.keys)

    def foreign(self, raw: bytes) -> bytes:
        return b"\x89PNG\r\n\x1a\n" + raw

    def non_object(self, raw: bytes) -> bytes:
        return b"[]\n"


class Tombstone(JsonStateFile):
    """``closed.json``: unreadable -> no cached response; stays closed."""

    name = "closed.json"
    keys = (b'"session"', b'"closed"')

    def __init__(self, root: Path) -> None:
        self.manager = DurabilityManager(root, fsync_interval=0.0)

    def write(self) -> Path:
        directory = self.manager.session_dir("s")
        directory.mkdir(parents=True, exist_ok=True)
        self.manager.finalize_close("s", 7, ("ok", {"closed": {"n": 1}}))
        return directory / "closed.json"

    def read(self, path: Path):
        return self.manager.closed_response("s", 7)

    def assert_intact(self, result, path: Path) -> None:
        assert result == ("ok", {"closed": {"n": 1}})

    def assert_damaged(self, result, path: Path) -> None:
        assert result is None
        with pytest.raises(SessionError) as excinfo:
            self.manager.check_not_closed("s")
        assert excinfo.value.code == "session-closed"


class StateFile(JsonStateFile):
    """``router.json``: unreadable -> no state, nothing fenced; kept."""

    name = "router.json"
    keys = (b'"router_pid"', b'"overrides"')

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self) -> Path:
        manager = ShardManager(2, data_dir=self.root)
        manager.extra["overrides"] = {"s": "shard-01"}
        manager.write_state(router_port=4242)
        return self.root / STATE_FILE

    def read(self, path: Path):
        fenced = ShardManager(1, data_dir=self.root).fence_stale_workers(0)
        return read_state(self.root), fenced

    def assert_intact(self, result, path: Path) -> None:
        state, fenced = result
        assert state["router_port"] == 4242 and fenced == []

    def assert_damaged(self, result, path: Path) -> None:
        state, fenced = result
        assert state is None and fenced == []
        assert path.exists()


FORMATS = [TraceEntry, ResultsEntry, Checkpoint, WalSegment, Tombstone,
           StateFile]


@pytest.fixture(params=FORMATS, ids=lambda cls: cls.name)
def fmt(request, tmp_path):
    return request.param(tmp_path)


@pytest.fixture
def written(fmt):
    path = fmt.write()
    raw = path.read_bytes()
    fmt.assert_intact(fmt.read(path), path)
    return path, raw


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


class TestCorruptionMatrix:
    def test_truncation_at_every_byte_boundary(self, fmt, written):
        path, raw = written
        end = len(raw.rstrip(b"\n")) if fmt.json_document else len(raw)
        for cut in range(end):
            path.write_bytes(raw[:cut])
            fmt.assert_damaged(fmt.read(path), path)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_flipped_byte(self, fmt, written, where):
        path, raw = written
        offset = fmt.spans(raw)[where == "body"]
        path.write_bytes(_flip(raw, offset))
        fmt.assert_damaged(fmt.read(path), path)

    def test_foreign_magic(self, fmt, written):
        path, raw = written
        path.write_bytes(fmt.foreign(raw))
        fmt.assert_damaged(fmt.read(path), path)

    def test_non_object_header(self, fmt, written):
        path, raw = written
        path.write_bytes(fmt.non_object(raw))
        fmt.assert_damaged(fmt.read(path), path)


class TestInterruptedWrite:
    @pytest.mark.parametrize(
        "fmt_cls", [f for f in FORMATS if f is not WalSegment],
        ids=lambda cls: cls.name,
    )
    def test_old_file_survives(self, fmt_cls, tmp_path, monkeypatch):
        fmt = fmt_cls(tmp_path)
        path = fmt.write()
        before = path.read_bytes()
        monkeypatch.setattr(atomicfile, "os", _CrashingOs())
        with pytest.raises(Interrupted):
            fmt.write()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not list(path.parent.rglob(".tmp-*"))

    def test_interrupted_rotation_publishes_no_segment(
        self, tmp_path, monkeypatch
    ):
        manager = DurabilityManager(tmp_path, fsync_interval=0.0,
                                    segment_bytes=4096)
        handle = manager.create("s", SPEC, None, SeqTracker())
        first = segment_path(manager.session_dir("s"), 1)
        before = first.read_bytes()
        monkeypatch.setattr(atomicfile, "os", _CrashingOs())
        with pytest.raises(Interrupted):
            handle.append(2, "apply", {"events": [], "pad": "x" * 5000})
        monkeypatch.undo()
        assert first.read_bytes() == before
        assert not segment_path(manager.session_dir("s"), 2).exists()
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_raise_inside_write_leaves_target_alone(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write(target, b"new bytes", None)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestReadOrEvict:
    def test_missing_file_is_a_miss_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_or_evict(tmp_path / "absent", bytes.decode)

    def test_parser_failure_evicts(self, tmp_path):
        path = tmp_path / "entry"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(atomicfile.CorruptEntryError):
            read_or_evict(path, bytes.decode)
        assert not path.exists()


class TestAtomicWriteJson:
    def test_writes_valid_json(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"x": [1, 2, 3]})
        assert json.loads(target.read_text()) == {"x": [1, 2, 3]}

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old garbage")
        atomic_write_json(target, {"fresh": True})
        assert json.loads(target.read_text()) == {"fresh": True}

    def test_no_tmp_droppings_on_success(self, tmp_path):
        atomic_write_json(tmp_path / "out.json", {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_unserializable_payload_leaves_no_partial_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text('{"old": true}')
        with pytest.raises(ValueError, match="[Cc]ircular"):
            # default=str handles most things; a circular structure
            # still fails inside json.dump after bytes were written.
            circular = {}
            circular["self"] = circular
            atomic_write_json(target, circular)
        assert json.loads(target.read_text()) == {"old": True}


def test_os_replace_lives_only_in_atomicfile():
    src = Path(atomicfile.__file__).parents[1]
    owners = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if re.search(r"\bos\.replace\(", path.read_text(encoding="utf-8"))
    )
    assert owners == ["common/atomicfile.py"]
