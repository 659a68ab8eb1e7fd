"""Durability-layer tests: WAL format, checkpoints, replay recovery.

The acceptance-critical contracts live here: a torn WAL tail (tested
at *every* byte boundary of the final record) never loses an earlier
acknowledged record, a corrupt checkpoint falls back to full replay,
and a recovered session is bit-exact against an uninterrupted
reference for several predictor families.
"""

import pytest
from _ondisk import swap_sealed_header

from repro.serve.durability import (
    DurabilityManager,
    decode_line,
    encode_record,
    load_checkpoint,
    scan_wal_file,
    segment_path,
    write_checkpoint,
)
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import (
    PredictorSession,
    SeqTracker,
    SessionError,
    SessionManager,
    apply_events,
    execute_op,
)

#: Predictor families the replay-equivalence matrix covers.
SPECS = [
    ("lvp", {"kind": "component", "name": "lvp", "entries": 64}),
    ("composite", {"kind": "composite", "entries": 64}),
    ("eves-8kb", {"kind": "eves", "variant": "8kb"}),
]


def make_events(n_loads: int = 30, base: int = 0x1000) -> list[dict]:
    """A deterministic little instruction stream exercising every kind."""
    events = []
    for i in range(n_loads):
        pc = base + (i % 7) * 4
        addr = 0x8000 + (i % 5) * 8
        value = (i * 11) % 97
        events.append({"k": "s", "pc": pc + 1, "addr": addr, "size": 8,
                       "value": value})
        events.append({"k": "l", "pc": pc, "addr": addr, "size": 8,
                       "value": value, "pred": True})
        if i % 3 == 0:
            events.append({"k": "b", "pc": pc + 2, "taken": bool(i & 1),
                           "cond": True})
        if i % 4 == 0:
            events.append({"k": "t", "n": 3})
    return events


def chunked(events: list[dict], size: int) -> list[list[dict]]:
    return [events[i:i + size] for i in range(0, len(events), size)]


def reference_snapshots(spec, chunks) -> list[dict]:
    """Uninterrupted ground truth: the snapshot after each chunk."""
    session = PredictorSession(spec, session_id="d1")
    snapshots = []
    for chunk in chunks:
        apply_events(session, chunk)
        snapshots.append(session.snapshot())
    return snapshots


def durable_server(tmp_path, **overrides) -> PredictionServer:
    config = ServerConfig(
        data_dir=str(tmp_path / "state"),
        fsync_interval=0.0,
        checkpoint_every=overrides.pop("checkpoint_every", 10_000),
        **overrides,
    )
    return PredictionServer(config)


def drive(server, session_id, spec, chunks, start_seq=2):
    """Durable open + one seq-stamped apply per chunk."""
    opened = server.execute(
        "open", {"session": session_id, "spec": spec, "durable": True}
    )
    results = []
    seq = start_seq
    for chunk in chunks:
        results.append(server.execute(
            "apply", {"session": session_id, "seq": seq, "events": chunk}
        ))
        seq += 1
    return opened, results, seq


class TestWalRecordFormat:
    def test_roundtrip(self):
        record = {"seq": 7, "op": "apply", "body": {"events": [1, 2]}}
        assert decode_line(encode_record(record)) == record

    def test_rejects_corruption(self):
        line = encode_record({"seq": 1, "op": "train", "body": {}})
        assert decode_line(line[:-1]) is None  # no newline (torn)
        assert decode_line(line[:9]) is None  # too short
        flipped = bytes([line[0] ^ 0x01]) + line[1:]
        assert decode_line(flipped) is None  # CRC mismatch
        payload = line[9:-1]
        nospace = line[:8] + b"x" + payload + b"\n"
        assert decode_line(nospace) is None  # malformed separator
        assert decode_line(b"not a wal line at all\n") is None

    def test_rejects_non_dict_json(self):
        from zlib import crc32
        raw = b"[1,2,3]"
        line = b"%08x " % crc32(raw) + raw + b"\n"
        assert decode_line(line) is None


class TestScanWalFile:
    def test_intact_file(self, tmp_path):
        path = tmp_path / "wal.log"
        lines = [encode_record({"seq": i, "op": "train", "body": {}})
                 for i in range(1, 4)]
        path.write_bytes(b"".join(lines))
        records, valid, dropped = scan_wal_file(path)
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert valid == sum(len(line) for line in lines)
        assert dropped == 0

    def test_garbage_tail_truncates(self, tmp_path):
        path = tmp_path / "wal.log"
        good = encode_record({"seq": 1, "op": "train", "body": {}})
        path.write_bytes(good + b"\x00\xff torn garbage")
        records, valid, dropped = scan_wal_file(path)
        assert [r["seq"] for r in records] == [1]
        assert valid == len(good)
        assert dropped == 1

    def test_mid_file_corruption_drops_the_rest(self, tmp_path):
        # Records are only meaningful in unbroken order: a bad line in
        # the middle invalidates everything after it, not just itself.
        path = tmp_path / "wal.log"
        first = encode_record({"seq": 1, "op": "train", "body": {}})
        last = encode_record({"seq": 3, "op": "train", "body": {}})
        path.write_bytes(first + b"00000000 {broken}\n" + last)
        records, valid, dropped = scan_wal_file(path)
        assert [r["seq"] for r in records] == [1]
        assert valid == len(first)
        assert dropped == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert scan_wal_file(tmp_path / "absent.log") == ([], 0, 0)


class TestCheckpointFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "checkpoint.ckpt"
        write_checkpoint(path, {"session": "s", "seq": 9}, b"BLOB" * 100)
        header, blob = load_checkpoint(path)
        assert header["session"] == "s"
        assert header["seq"] == 9
        assert blob == b"BLOB" * 100
        assert not list(tmp_path.glob(".tmp-*"))  # atomic, no droppings

    def test_corrupt_blob_is_evicted(self, tmp_path):
        path = tmp_path / "checkpoint.ckpt"
        write_checkpoint(path, {"seq": 1}, b"state bytes")
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert load_checkpoint(path) is None
        assert not path.exists()  # corrupt file evicted

    def test_truncated_and_foreign_files_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.ckpt"
        write_checkpoint(path, {"seq": 1}, b"x" * 64)
        full = path.read_bytes()
        path.write_bytes(full[:10])
        assert load_checkpoint(path) is None
        path.write_bytes(b"NOTMAGIC" + full[8:])
        assert load_checkpoint(path) is None

    def test_non_object_header_is_evicted(self, tmp_path):
        path = tmp_path / "checkpoint.ckpt"
        write_checkpoint(path, {"seq": 1}, b"x" * 64)
        path.write_bytes(swap_sealed_header(path.read_bytes(), b"[]"))
        assert load_checkpoint(path) is None
        assert not path.exists()


class TestSeqTracker:
    def test_new_then_replay(self):
        tracker = SeqTracker()
        assert tracker.check(1) is None
        tracker.record(1, ("ok", {"n": 1}))
        assert tracker.check(1) == ("ok", {"n": 1})
        assert tracker.check(2) is None

    def test_gap_and_bad_values(self):
        tracker = SeqTracker()
        tracker.record(1, ("ok", {}))
        with pytest.raises(SessionError) as excinfo:
            tracker.check(3)
        assert excinfo.value.code == "seq-gap"
        for bad in (0, -1, True, "2", None, 1.5):
            with pytest.raises(SessionError) as excinfo:
                tracker.check(bad)
            assert excinfo.value.code == "bad-seq"

    def test_replay_past_cache_window(self):
        tracker = SeqTracker(cache_size=2)
        for seq in range(1, 5):
            tracker.record(seq, ("ok", {"seq": seq}))
        assert tracker.check(4) == ("ok", {"seq": 4})
        with pytest.raises(SessionError) as excinfo:
            tracker.check(1)
        assert excinfo.value.code == "seq-too-old"

    def test_error_entries_are_cached_too(self):
        tracker = SeqTracker()
        tracker.record(1, ("error", "bad-event", "event 3: nope"))
        assert tracker.check(1) == ("error", "bad-event", "event 3: nope")


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("name,spec", SPECS, ids=[s[0] for s in SPECS])
    def test_full_replay_is_bit_exact(self, tmp_path, name, spec):
        chunks = chunked(make_events(40), 25)
        reference = reference_snapshots(spec, chunks)

        first = durable_server(tmp_path)
        _, results, next_seq = drive(first, "d1", spec, chunks)
        live = first.sessions.get("d1").snapshot()
        assert live == reference[-1]
        first.durability.close_all()  # simulate losing the process

        second = durable_server(tmp_path)
        report = second.recover()
        assert report["recovered_sessions"] == 1
        # The open record replays too: chunks + 1.
        assert report["replayed_records"] == len(chunks) + 1
        recovered = second.sessions.get("d1")
        assert recovered.snapshot() == reference[-1]
        # The replay cache survived: retrying the last apply returns
        # its original response instead of double-executing.
        assert second.execute(
            "apply", {"session": "d1", "seq": next_seq - 1,
                      "events": chunks[-1]},
        ) == results[-1]
        second.durability.close_all()

    @pytest.mark.parametrize("name,spec", SPECS, ids=[s[0] for s in SPECS])
    def test_checkpoint_plus_tail_is_bit_exact(self, tmp_path, name, spec):
        chunks = chunked(make_events(40), 20)
        reference = reference_snapshots(spec, chunks)

        first = durable_server(tmp_path, checkpoint_every=3)
        drive(first, "d1", spec, chunks)
        assert first.durability.stats.checkpoint_count >= 1
        first.durability.close_all()

        second = durable_server(tmp_path, checkpoint_every=3)
        report = second.recover()
        # The checkpoint bounded recovery: only the tail was replayed.
        assert report["replayed_records"] < len(chunks)
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_resumed_session_keeps_advancing_like_the_reference(
        self, tmp_path
    ):
        spec = SPECS[0][1]
        chunks = chunked(make_events(48), 30)
        half = len(chunks) // 2
        reference = reference_snapshots(spec, chunks)

        first = durable_server(tmp_path)
        drive(first, "d1", spec, chunks[:half])
        first.durability.close_all()

        second = durable_server(tmp_path)
        second.recover()
        opened = second.execute(
            "open", {"session": "d1", "spec": spec, "durable": True}
        )
        assert opened["resumed"] is True
        seq = opened["applied_seq"] + 1
        for chunk in chunks[half:]:
            second.execute(
                "apply", {"session": "d1", "seq": seq, "events": chunk}
            )
            seq += 1
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()


class TestTornTailMatrix:
    def test_every_byte_boundary_of_the_final_record(self, tmp_path):
        """Truncate the WAL at every offset inside its last record.

        Whatever byte the crash tore, recovery must land on the state
        after the last *intact* record -- never corrupt state, never a
        lost earlier record.
        """
        spec = SPECS[0][1]
        # Big chunks, then a tiny final one, so the matrix stays small.
        events = make_events(24)
        chunks = chunked(events[:-4], 40) + [events[-4:]]
        reference = reference_snapshots(spec, chunks)

        server = durable_server(tmp_path)
        drive(server, "d1", spec, chunks)
        server.durability.close_all()

        directory = server.durability.session_dir("d1")
        wal_path = sorted(directory.glob("wal-*.log"))[-1]
        origin = wal_path.read_bytes()
        final_start = origin.rfind(b"\n", 0, len(origin) - 1) + 1
        assert final_start > 0

        for cut in range(final_start, len(origin) + 1):
            wal_path.write_bytes(origin[:cut])
            manager = DurabilityManager(
                tmp_path / "state", fsync_interval=0.0
            )
            session = manager.recover("d1")
            torn = cut < len(origin)
            want = reference[-2] if torn else reference[-1]
            assert session.snapshot() == want, f"cut at byte {cut}"
            if torn and cut > final_start:
                assert manager.stats.corrupt_tail_records >= 1
                # The repair truncated the tail back to intact bytes.
                assert wal_path.stat().st_size == final_start
            manager.close_all()

    def test_recovered_tail_segment_accepts_new_appends(self, tmp_path):
        spec = SPECS[0][1]
        chunks = chunked(make_events(30), 30)
        server = durable_server(tmp_path)
        _, _, next_seq = drive(server, "d1", spec, chunks)
        server.durability.close_all()

        # Tear the tail, recover, then keep writing through the
        # repaired segment and recover *again* -- the repaired WAL must
        # itself be a valid WAL.
        directory = server.durability.session_dir("d1")
        wal_path = sorted(directory.glob("wal-*.log"))[-1]
        wal_path.write_bytes(wal_path.read_bytes()[:-7])

        second = durable_server(tmp_path)
        second.recover()
        resumed_seq = second.sessions.get("d1").tracker.applied_seq + 1
        assert resumed_seq == next_seq - 1  # the torn record was lost
        second.execute(
            "apply", {"session": "d1", "seq": resumed_seq,
                      "events": chunks[-1]},
        )
        final = second.sessions.get("d1").snapshot()
        second.durability.close_all()

        third = durable_server(tmp_path)
        third.recover()
        assert third.sessions.get("d1").snapshot() == final
        third.durability.close_all()


class TestTearsBeforeTheCheckpoint:
    """A tear ends the usable log only where replay finds a gap past the
    checkpoint's seq.  The WAL here: 24 applies (acknowledged through
    seq 25) over four 4 KiB segments, checkpointed at seq 21."""

    SPEC = SPECS[1][1]

    def _write(self, tmp_path):
        chunks = chunked(make_events(89), 10)
        server = durable_server(tmp_path, wal_segment_bytes=4096,
                                checkpoint_every=5)
        _, _, next_seq = drive(server, "d1", self.SPEC, chunks)
        server.durability.close_all()
        directory = server.durability.session_dir("d1")
        assert (len(chunks), next_seq) == (24, 26)
        assert len(list(directory.glob("wal-*.log"))) == 4
        header, _ = load_checkpoint(directory / "checkpoint.ckpt")
        assert header["seq"] == 21
        return chunks, directory

    def test_segment_one_header_bit_flip_keeps_acknowledged_records(
        self, tmp_path
    ):
        """Segment 1's header names the session; with one bit of it
        flipped, the checkpoint names it instead, and seqs 22-25 --
        intact in later segments -- are replayed, not dropped."""
        chunks, directory = self._write(tmp_path)
        reference = reference_snapshots(self.SPEC, chunks)
        first = directory / "wal-00000001.log"
        data = bytearray(first.read_bytes())
        data[0] ^= 1
        first.write_bytes(bytes(data))

        second = durable_server(tmp_path, wal_segment_bytes=4096,
                                checkpoint_every=5)
        assert second.durability.scan_ids() == ["d1"]
        report = second.recover()
        assert report["recovered_sessions"] == 1
        session = second.sessions.get("d1")
        assert session.tracker.applied_seq == 25
        assert session.snapshot() == reference[-1]
        assert len(list(directory.glob("wal-*.log"))) == 4
        second.execute("apply", {"session": "d1", "seq": 26,
                                 "events": chunks[0]})
        final = second.sessions.get("d1").snapshot()
        second.durability.close_all()

        third = durable_server(tmp_path, wal_segment_bytes=4096,
                               checkpoint_every=5)
        third.recover()
        assert third.sessions.get("d1").tracker.applied_seq == 26
        assert third.sessions.get("d1").snapshot() == final
        third.durability.close_all()

    def test_a_covered_tear_is_counted_once(self, tmp_path):
        """Recovery rewrites a torn segment before the tail whose lost
        records the checkpoint covers, as a fresh header plus its
        intact records: the tear is reported at the first restart only,
        and every restart recovers every acknowledged record and keeps
        appending."""
        chunks, directory = self._write(tmp_path)
        first = directory / "wal-00000001.log"
        data = bytearray(first.read_bytes())
        data[0] ^= 1
        first.write_bytes(bytes(data))

        seq = 25
        for tears in (8, 0, 0):
            server = durable_server(tmp_path, wal_segment_bytes=4096,
                                    checkpoint_every=5)
            assert server.durability.scan_ids() == ["d1"]
            server.recover()
            stats = server.durability.stats
            assert stats.corrupt_tail_records == tears
            assert stats.checkpoint_failures == 0
            assert server.sessions.get("d1").tracker.applied_seq == seq
            # Segment 1 lost every line to the tear: it is now a header
            # naming the session and nothing else.
            records, valid, dropped = scan_wal_file(first)
            assert (dropped, valid) == (0, first.stat().st_size)
            assert [r["op"] for r in records] == ["_segment"]
            assert records[0]["session"] == "d1"
            seq += 1
            server.execute("apply", {"session": "d1", "seq": seq,
                                     "events": chunks[0]})
            server.durability.close_all()

    def test_tear_past_the_checkpoint_truncates_and_drops(self, tmp_path):
        """A bit flipped in seq 23's record still ends the log there:
        its segment is truncated before it, later segments are
        dropped, and the session resumes at seq 22."""
        chunks, directory = self._write(tmp_path)
        reference = reference_snapshots(self.SPEC, chunks)
        segments = sorted(directory.glob("wal-*.log"))
        for position, path in enumerate(segments):
            data = bytearray(path.read_bytes())
            start = data.find(b'{"seq":23,')
            if start >= 0:
                break
        line = data.rfind(b"\n", 0, start) + 1
        data[start + 20] ^= 1
        path.write_bytes(bytes(data))

        second = durable_server(tmp_path, wal_segment_bytes=4096,
                                checkpoint_every=5)
        second.recover()
        session = second.sessions.get("d1")
        assert session.tracker.applied_seq == 22
        assert session.snapshot() == reference[20]
        assert second.durability.stats.corrupt_tail_records >= 1
        assert path.stat().st_size == line
        assert sorted(directory.glob("wal-*.log")) == segments[:position + 1]
        second.durability.close_all()


def _install_record_era(patch, getstates: dict) -> None:
    """Pickle outstanding predict decisions the way checkpoint formats
    4-8 did, as per-load records.

    Installs stand-ins for the retired records where they lived
    (``LoadProbe`` and ``Prediction`` in :mod:`repro.predictors.types`,
    ``CompositeDecision`` in :mod:`repro.composite.composite`), each
    with the ``__getstate__`` that ``getstates`` names for it, and
    makes :meth:`PredictorSession.capture_state` convert every pending
    decision into them.
    """
    import dataclasses

    from repro.composite import composite
    from repro.predictors import types

    @dataclasses.dataclass(slots=True)
    class LoadProbe:
        pc: int
        direction_history: int = 0
        path_history: int = 0
        load_path_history: int = 0
        inflight_same_pc: int = 0
        ordinal: int = -1

    @dataclasses.dataclass(slots=True)
    class Prediction:
        component: str
        kind: types.PredictionKind
        value: int = 0
        addr: int = 0
        size: int = 0

    @dataclasses.dataclass(slots=True)
    class CompositeDecision:
        probe: LoadProbe
        chosen: Prediction | None
        confident: dict
        squashed: frozenset

    for module, cls in ((types, LoadProbe), (types, Prediction),
                        (composite, CompositeDecision)):
        cls.__module__ = module.__name__
        cls.__qualname__ = cls.__name__
        patch.setattr(module, cls.__name__, cls, raising=False)
        if cls.__name__ in getstates:
            patch.setattr(cls, "__getstate__", getstates[cls.__name__],
                          raising=False)

    def as_record(decision, host) -> CompositeDecision:
        confident = {}
        for slot, name in enumerate(host.slot_names):
            prediction = decision[types.PREDICTED + slot]
            if prediction is None:
                continue
            if host.address_slots >> slot & 1:
                confident[name] = Prediction(
                    name, types.PredictionKind.ADDRESS,
                    addr=types.address_of(prediction),
                    size=types.size_of(prediction),
                )
            else:
                confident[name] = Prediction(
                    name, types.PredictionKind.VALUE, value=prediction
                )
        chosen = decision[types.CHOSEN]
        return CompositeDecision(
            probe=LoadProbe(*decision[:types.CONFIDENT]),
            chosen=(
                confident[host.slot_names[chosen]] if chosen >= 0 else None
            ),
            confident=confident,
            squashed=frozenset(
                types.slot_names(decision[types.SQUASHED], host.slot_names)
            ),
        )

    capture = PredictorSession.capture_state

    def record_era_capture(self):
        state = capture(self)
        state["pending"] = [
            as_record(decision, self.predictor)
            for decision in state["pending"]
        ]
        return state

    patch.setattr(PredictorSession, "capture_state", record_era_capture)


class TestCheckpointCorruptionFallback:
    def test_corrupt_checkpoint_falls_back_to_full_replay(self, tmp_path):
        spec = SPECS[1][1]  # composite: the richest state to rebuild
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)

        first = durable_server(tmp_path, checkpoint_every=2)
        drive(first, "d1", spec, chunks)
        first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(raw))

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        # Eviction + full replay: every record re-executed, same state.
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_format_1_checkpoint_falls_back_to_full_replay(self, tmp_path):
        """A checkpoint in the layout before CHECKPOINT_FORMAT 2 (magic,
        u32 header length, header carrying its own format and blob
        digest) is evicted as corrupt, never misread."""
        import hashlib
        import json
        import struct

        spec = SPECS[1][1]
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        first = durable_server(tmp_path, checkpoint_every=2)
        drive(first, "d1", spec, chunks)
        first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        header.update(format=1,
                      blob_sha256=hashlib.sha256(blob).hexdigest())
        raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
        ckpt.write_bytes(b"RLVPCKP\x01" + struct.pack("<I", len(raw))
                         + raw + bytes(blob))

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()


    def test_format_2_checkpoint_falls_back_to_full_replay(self, tmp_path):
        """A checkpoint sealed as CHECKPOINT_FORMAT 2 (predictor tables
        pickled as per-entry objects) is evicted as corrupt and the
        session rebuilt bit-identically by full WAL replay."""
        from repro.common.atomicfile import write_sealed

        spec = SPECS[1][1]
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        first = durable_server(tmp_path, checkpoint_every=2)
        drive(first, "d1", spec, chunks)
        first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        write_sealed(ckpt, b"RLVPCKP\x01", 2, header, bytes(blob))

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_format_3_checkpoint_falls_back_to_full_replay(self, tmp_path):
        """A CHECKPOINT_FORMAT 3 checkpoint of a lone-component session
        pickles a host class that no longer exists.  It is evicted by
        its version before anything unpickles it, and the session is
        rebuilt bit-identically by full WAL replay."""
        import pickle

        from repro.common.atomicfile import write_sealed

        spec = SPECS[0][1]  # lvp alone
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        first = durable_server(tmp_path, checkpoint_every=2)
        drive(first, "d1", spec, chunks)
        first.durability.close_all()

        # Rename the pickled host class to one that does not exist
        # (same length, so the pickle stays well-formed): that is how a
        # format-3 lone-component checkpoint reads now its adapter class
        # is deleted.
        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        blob = bytes(blob).replace(b"CompositePredictor", b"RetiredHostAdapter")
        with pytest.raises(AttributeError, match="RetiredHostAdapter"):
            pickle.loads(blob)
        write_sealed(ckpt, b"RLVPCKP\x01", 3, header, blob)

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.durability.stats.checkpoint_failures == 0
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def _record_era_fallback(self, tmp_path, monkeypatch, version,
                             getstates=None):
        """Write a checkpoint whose outstanding predict decision is
        pickled as the per-load records of ``version`` (see
        :func:`_install_record_era`), reseal it as ``version``, and
        check that recovery evicts it by its version before anything
        unpickles it and rebuilds the session bit-identically by full
        WAL replay."""
        import pickle

        from repro.common.atomicfile import write_sealed

        spec = SPECS[1][1]
        chunks = chunked(make_events(36), 20)
        pc = 0x1000
        reference = PredictorSession(spec, session_id="d1")
        for chunk in chunks:
            apply_events(reference, chunk)
        reference.predict(pc)
        assert reference.pending == 1

        with monkeypatch.context() as patch:
            _install_record_era(patch, getstates or {})
            first = durable_server(tmp_path, checkpoint_every=1)
            _, _, seq = drive(first, "d1", spec, chunks)
            first.execute("predict", {"session": "d1", "seq": seq, "pc": pc})
            first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        blob = bytes(blob)
        with pytest.raises(AttributeError,
                           match="LoadProbe|Prediction|CompositeDecision"):
            pickle.loads(blob)
        write_sealed(ckpt, b"RLVPCKP\x01", version, header, blob)

        second = durable_server(tmp_path, checkpoint_every=1)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 2
        assert second.durability.stats.checkpoint_failures == 0
        assert second.sessions.get("d1").snapshot() == reference.snapshot()
        second.durability.close_all()

    def test_format_4_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 4 checkpoint pickles a session's
        outstanding predict decisions as frozen records, whose state
        was the list of field values."""
        import dataclasses

        def frozen_era_getstate(self):
            return [getattr(self, f.name) for f in dataclasses.fields(self)]

        self._record_era_fallback(tmp_path, monkeypatch, 4, dict.fromkeys(
            ("LoadProbe", "Prediction", "CompositeDecision"),
            frozen_era_getstate,
        ))

    def test_format_5_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 5 checkpoint pickles a session's
        outstanding predict decisions with the probe's ``folded``
        field."""
        import dataclasses

        def folded_era_getstate(self):
            state = {f.name: getattr(self, f.name)
                     for f in dataclasses.fields(self)}
            state["folded"] = ()
            return None, state

        self._record_era_fallback(tmp_path, monkeypatch, 5,
                                  {"LoadProbe": folded_era_getstate})

    def test_format_6_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 6 checkpoint of an EVES session pickles
        E-VTAGE's tables as per-entry objects of classes that no longer
        exist.  It is evicted by its version before anything unpickles
        it, and the session is rebuilt bit-identically by full WAL
        replay."""
        import dataclasses
        import pickle

        from repro.common.atomicfile import write_sealed
        from repro.eves import evtage

        @dataclasses.dataclass(slots=True)
        class _TaggedEntry:
            tag: int
            value: int
            confidence: int
            useful: int

        @dataclasses.dataclass(slots=True)
        class _BaseEntry:
            value: int
            confidence: int

        for cls in (_TaggedEntry, _BaseEntry):
            cls.__module__ = evtage.__name__
            cls.__qualname__ = cls.__name__

        # Pickle the way format 6 did: one object per table entry.
        def entry_era_getstate(self):
            state = dict(self.__dict__)
            state["_base"] = [_BaseEntry(*entry) for entry in zip(*self._base)]
            state["_tables"] = [
                [_TaggedEntry(*entry) for entry in zip(*table)]
                for table in self._tables
            ]
            return state

        spec = SPECS[2][1]  # eves-8kb
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        with monkeypatch.context() as patch:
            patch.setattr(evtage, "_TaggedEntry", _TaggedEntry, raising=False)
            patch.setattr(evtage, "_BaseEntry", _BaseEntry, raising=False)
            patch.setattr(evtage.EVtagePredictor, "__getstate__",
                          entry_era_getstate, raising=False)
            first = durable_server(tmp_path, checkpoint_every=2)
            drive(first, "d1", spec, chunks)
            first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        blob = bytes(blob)
        with pytest.raises(AttributeError, match="_TaggedEntry|_BaseEntry"):
            pickle.loads(blob)
        write_sealed(ckpt, b"RLVPCKP\x01", 6, header, blob)

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.durability.stats.checkpoint_failures == 0
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_format_7_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 7 checkpoint of an EVES session pickles
        its predictor inside an ``EvesAdapter`` host wrapper that no
        longer exists.  It is evicted by its version before anything
        unpickles it, and the session is rebuilt bit-identically by
        full WAL replay."""
        import pickle

        from repro.common.atomicfile import write_sealed
        from repro.pipeline import vp

        class EvesAdapter:
            def __init__(self, eves) -> None:
                self.eves = eves

        EvesAdapter.__module__ = vp.__name__
        EvesAdapter.__qualname__ = EvesAdapter.__name__

        # Pickle the way format 7 did: the EVES predictor wrapped.
        capture = PredictorSession.capture_state

        def adapter_era_capture(self):
            state = capture(self)
            state["predictor"] = EvesAdapter(state["predictor"])
            return state

        spec = SPECS[2][1]  # eves-8kb
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        with monkeypatch.context() as patch:
            patch.setattr(vp, "EvesAdapter", EvesAdapter, raising=False)
            patch.setattr(PredictorSession, "capture_state",
                          adapter_era_capture)
            first = durable_server(tmp_path, checkpoint_every=2)
            drive(first, "d1", spec, chunks)
            first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        blob = bytes(blob)
        with pytest.raises(AttributeError, match="EvesAdapter"):
            pickle.loads(blob)
        write_sealed(ckpt, b"RLVPCKP\x01", 7, header, blob)

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.durability.stats.checkpoint_failures == 0
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_format_8_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 8 checkpoint pickles a session's
        outstanding predict decisions as ``CompositeDecision`` records
        of a ``LoadProbe`` and ``Prediction`` objects, classes that no
        longer exist: a decision is now one flat list of ints."""
        self._record_era_fallback(tmp_path, monkeypatch, 8)

    def test_format_9_checkpoint_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A CHECKPOINT_FORMAT 9 checkpoint pickles every FPC stream as
        an unbuffered ``DeterministicRng`` and monitor counters keyed by
        component name.  It is evicted by its version before anything
        unpickles it, and the session is rebuilt bit-identically by full
        WAL replay."""
        from repro.common.atomicfile import write_sealed
        from repro.common.rng import DeterministicRng

        spec = SPECS[1][1]
        chunks = chunked(make_events(36), 20)
        reference = reference_snapshots(spec, chunks)
        with monkeypatch.context() as patch:
            # The format-9 layout: a component's FPC stream is a plain
            # derived stream.
            patch.setattr(DeterministicRng, "coins", DeterministicRng.derive)
            first = durable_server(tmp_path, checkpoint_every=2)
            drive(first, "d1", spec, chunks)
            first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        header, blob = load_checkpoint(ckpt)
        header.pop("body_sha256")
        blob = bytes(blob)
        assert b"DeterministicRng" in blob and b"CoinStream" not in blob
        write_sealed(ckpt, b"RLVPCKP\x01", 9, header, blob)

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert not ckpt.exists()
        assert report["replayed_records"] == len(chunks) + 1
        assert second.durability.stats.checkpoint_failures == 0
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()

    def test_format_7_checkpoint_with_fold_registers_restores(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint written while :class:`HistorySet` still had
        folded registers pickles their (empty: sessions never
        registered a fold) containers beside the raw registers.  It
        still restores the session bit-exactly, from the checkpoint
        rather than by full WAL replay, and the restored registers
        carry nothing else."""
        from repro.branch.history import HistorySet

        def fold_era_getstate(self):
            return {
                "direction": self.direction, "path": self.path,
                "load_path": self.load_path, "_dir_cells": [],
                "_path_cells": [], "_slot_by_key": {}, "_slot_cells": [],
                "_slot_specs": [],
            }

        spec = SPECS[1][1]
        chunks = chunked(make_events(36), 20)
        reference = PredictorSession(spec, session_id="d1")
        for chunk in chunks:
            apply_events(reference, chunk)
        assert reference.histories.direction and reference.histories.path
        with monkeypatch.context() as patch:
            patch.setattr(HistorySet, "__getstate__", fold_era_getstate,
                          raising=False)
            first = durable_server(tmp_path, checkpoint_every=2)
            drive(first, "d1", spec, chunks)
            first.durability.close_all()

        ckpt = first.durability.session_dir("d1") / "checkpoint.ckpt"
        _, blob = load_checkpoint(ckpt)
        assert b"_slot_specs" in bytes(blob)

        second = durable_server(tmp_path, checkpoint_every=2)
        report = second.recover()
        assert ckpt.exists()
        assert report["replayed_records"] < len(chunks)
        assert second.durability.stats.checkpoint_failures == 0
        recovered = second.sessions.get("d1")
        assert recovered.snapshot() == reference.snapshot()
        assert vars(recovered.histories) == vars(reference.histories)
        second.durability.close_all()


class TestSegmentRotation:
    def test_rotation_and_multi_segment_recovery(self, tmp_path):
        spec = SPECS[0][1]
        chunks = chunked(make_events(120), 12)
        reference = reference_snapshots(spec, chunks)

        first = durable_server(tmp_path, wal_segment_bytes=4096)
        drive(first, "d1", spec, chunks)
        assert first.durability.stats.wal_segments >= 2
        first.durability.close_all()

        directory = first.durability.session_dir("d1")
        segments = sorted(directory.glob("wal-*.log"))
        assert len(segments) >= 2
        # Every segment opens with a header record naming the session.
        for segment in segments:
            records, _, _ = scan_wal_file(segment)
            assert records[0]["op"] == "_segment"
            assert records[0]["session"] == "d1"

        second = durable_server(tmp_path, wal_segment_bytes=4096)
        assert second.durability.scan_ids() == ["d1"]
        second.recover()
        assert second.sessions.get("d1").snapshot() == reference[-1]
        second.durability.close_all()


class TestCloseTombstone:
    def test_close_is_durable_and_retries_are_cached(self, tmp_path):
        spec = SPECS[0][1]
        chunks = chunked(make_events(16), 20)
        server = durable_server(tmp_path)
        _, _, close_seq = drive(server, "d1", spec, chunks)
        closed = server.execute("close", {"session": "d1", "seq": close_seq})
        assert closed["closed"]["session"] == "d1"
        # A retried close returns the tombstoned response verbatim.
        assert server.execute(
            "close", {"session": "d1", "seq": close_seq}
        ) == closed
        # The id is burned: reopening is refused, in this process...
        with pytest.raises(SessionError) as excinfo:
            server.execute(
                "open", {"session": "d1", "spec": spec, "durable": True}
            )
        assert excinfo.value.code == "session-closed"
        server.durability.close_all()

        # ...and in the next one; recovery skips tombstoned sessions.
        second = durable_server(tmp_path)
        report = second.recover()
        assert report["recovered_sessions"] == 0
        assert second.execute(
            "close", {"session": "d1", "seq": close_seq}
        ) == closed
        with pytest.raises(SessionError) as excinfo:
            second.execute(
                "open", {"session": "d1", "spec": spec, "durable": True}
            )
        assert excinfo.value.code == "session-closed"
        second.durability.close_all()

    def test_non_object_tombstone_has_no_cached_response(self, tmp_path):
        manager = DurabilityManager(tmp_path / "state")
        directory = manager.session_dir("d1")
        directory.mkdir(parents=True)
        (directory / "closed.json").write_text("[]")
        assert manager.closed_response("d1", 1) is None
        # The tombstone's existence alone keeps the id burned.
        with pytest.raises(SessionError) as excinfo:
            manager.check_not_closed("d1")
        assert excinfo.value.code == "session-closed"

    def test_logged_close_without_tombstone_finishes_the_close(
        self, tmp_path
    ):
        """Crash between the WAL close record and the tombstone write."""
        spec = SPECS[0][1]
        chunks = chunked(make_events(16), 20)
        server = durable_server(tmp_path)
        _, _, close_seq = drive(server, "d1", spec, chunks)
        handle = server.durability.handle("d1")
        # Append the close record the way the live path would, then
        # "crash" before close executes or the tombstone lands.
        handle.append(close_seq, "close", {})
        server.durability.close_all()

        second = durable_server(tmp_path)
        report = second.recover()
        assert report["recovered_sessions"] == 0
        directory = second.durability.session_dir("d1")
        assert (directory / "closed.json").exists()
        with pytest.raises(SessionError) as excinfo:
            second.execute(
                "open", {"session": "d1", "spec": spec, "durable": True}
            )
        assert excinfo.value.code == "session-closed"
        # The retried close still gets its (replay-regenerated) answer.
        retried = second.execute("close", {"session": "d1", "seq": close_seq})
        assert retried["closed"]["session"] == "d1"
        second.durability.close_all()


class TestErrorCodes:
    """The session-layer error codes only the durability paths raise."""

    def test_unknown_wal_op_is_a_bad_wal_record(self):
        entry = execute_op(PredictorSession(None), "rewind", {})
        assert entry[:2] == ("error", "bad-wal-record")
        assert "rewind" in entry[2]

    def test_no_open_record_and_no_checkpoint_is_unrecoverable(
        self, tmp_path
    ):
        manager = DurabilityManager(tmp_path, fsync_interval=0.0)
        manager.create("u1", None, None, SeqTracker())
        manager.release("u1")
        segment = segment_path(manager.session_dir("u1"), 1)
        header = segment.read_bytes().split(b"\n")[0] + b"\n"
        assert decode_line(header)["op"] == "_segment"
        segment.write_bytes(header)  # drop the open record
        assert manager.exists("u1")
        with pytest.raises(SessionError) as raised:
            manager.recover("u1")
        assert raised.value.code == "unrecoverable"

    def test_releasing_an_in_memory_session_is_not_durable(self, tmp_path):
        manager = SessionManager(
            durability=DurabilityManager(tmp_path, fsync_interval=0.0)
        )
        manager.open("m1", None)
        with pytest.raises(SessionError) as raised:
            manager.release("m1")
        assert raised.value.code == "not-durable"
        assert "m1" in manager
