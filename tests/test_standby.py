"""Warm-standby replication tests: torn tails, rotation, promotion.

The replication contracts the sharded tier's standbys depend on live
here: a shipped chunk torn at *every* byte boundary never corrupts the
replica (partial tails stay pending, complete lines replay), segment
rotation racing the stream cursor converges to byte-identical local
files, a standby killed mid-replay re-syncs to a bit-identical
snapshot, and in-process promotion catches up from the fenced
primary's disk and starts serving with no acked record lost.
"""

import shutil

import pytest

from repro.serve.durability import (
    _TOMBSTONE,
    decode_line,
    encode_record,
    scan_wal_file,
    segment_path,
    session_dir_name,
)
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import (
    PredictorSession,
    SessionError,
    apply_events,
)
from repro.serve.shardmgr import poll_backoff
from repro.serve.standby import (
    ReplicaSet,
    ReplicationError,
    SessionReplica,
    StandbyServer,
    ship_wal,
)

SPEC = {"kind": "component", "name": "lvp", "entries": 64}


def make_events(n_loads: int = 30, base: int = 0x1000) -> list[dict]:
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
    return events


def chunked(events, size):
    return [events[i:i + size] for i in range(0, len(events), size)]


def reference_final(session_id, chunks) -> dict:
    session = PredictorSession(SPEC, session_id=session_id)
    for chunk in chunks:
        apply_events(session, chunk)
    return session.snapshot()


def durable_server(tmp_path, name="primary", **overrides):
    config = ServerConfig(
        data_dir=str(tmp_path / name),
        fsync_interval=0.0,
        checkpoint_every=overrides.pop("checkpoint_every", 10_000),
        **overrides,
    )
    return PredictionServer(config)


def drive(server, session_id, chunks, start_seq=2):
    server.execute(
        "open", {"session": session_id, "spec": SPEC, "durable": True}
    )
    seq = start_seq
    for chunk in chunks:
        server.execute(
            "apply", {"session": session_id, "seq": seq, "events": chunk}
        )
        seq += 1
    return seq


def replica_set(tmp_path) -> ReplicaSet:
    return ReplicaSet(tmp_path / "standby-sessions", 256, 1 << 20)


def stream_all(primary_root, replicas, max_bytes=64 * 1024) -> int:
    """Poll ship_wal until the stream fully drains; returns bytes."""
    total = 0
    for _ in range(1000):
        payload = ship_wal(primary_root, replicas.cursors(), max_bytes)
        progressed = replicas.ingest(payload)
        total += progressed
        if not progressed and not payload["exhausted"]:
            return total
    raise AssertionError("stream never drained")


def wal_lines(session_id, chunks) -> bytes:
    """A hand-built WAL byte stream: one open + one apply per chunk."""
    records = [{
        "seq": 1, "op": "open",
        "body": {"session": session_id, "spec": SPEC},
    }]
    for i, chunk in enumerate(chunks):
        records.append(
            {"seq": i + 2, "op": "apply", "body": {"events": chunk}}
        )
    return b"".join(encode_record(r) for r in records)


class TestTornChunkBoundaries:
    def test_every_byte_boundary(self, tmp_path):
        chunks = chunked(make_events(4), 3)
        data = wal_lines("t1", chunks)
        want = reference_final("t1", chunks)
        n_records = len(chunks) + 1
        boundaries = [0] + [i + 1 for i, b in enumerate(data)
                            if b == ord("\n")]
        for cut in range(len(data) + 1):
            replica = SessionReplica(
                "t1", tmp_path / f"cut-{cut}", 256, 1 << 20
            )
            consumed = replica.ingest_chunk(1, 0, data[:cut])
            # Only whole lines are verified; the tail stays pending.
            assert consumed == max(b for b in boundaries if b <= cut), \
                f"cut at byte {cut}"
            assert replica.cursor() == {"segment": 1, "offset": cut}
            assert replica.ingest_chunk(1, cut, data[cut:]) == \
                len(data) - consumed
            assert replica.records == n_records, f"cut at byte {cut}"
            assert replica.session.snapshot() == want, \
                f"cut at byte {cut}"
            replica.close_files()

    def test_cursor_mismatch_raises(self, tmp_path):
        data = wal_lines("t2", chunked(make_events(2), 2))
        replica = SessionReplica("t2", tmp_path / "r", 256, 1 << 20)
        replica.ingest_chunk(1, 0, data[:10])
        with pytest.raises(ReplicationError):
            replica.ingest_chunk(1, 9, data[9:])
        with pytest.raises(ReplicationError):
            replica.ingest_chunk(1, 11, data[11:])

    def test_crc_failure_on_complete_line_raises(self, tmp_path):
        data = wal_lines("t3", chunked(make_events(2), 2))
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        replica = SessionReplica("t3", tmp_path / "r", 256, 1 << 20)
        with pytest.raises(ReplicationError):
            replica.ingest_chunk(1, 0, flipped)

    def test_seq_gap_raises(self, tmp_path):
        records = [
            {"seq": 1, "op": "open",
             "body": {"session": "t4", "spec": SPEC}},
            {"seq": 3, "op": "apply",
             "body": {"events": make_events(1)}},
        ]
        data = b"".join(encode_record(r) for r in records)
        replica = SessionReplica("t4", tmp_path / "r", 256, 1 << 20)
        with pytest.raises(ReplicationError):
            replica.ingest_chunk(1, 0, data)

    def test_stale_segment_chunk_is_ignored(self, tmp_path):
        data = wal_lines("t5", chunked(make_events(2), 2))
        replica = SessionReplica("t5", tmp_path / "r", 256, 1 << 20)
        replica.ingest_chunk(1, 0, data)
        extra = encode_record(
            {"seq": len(chunked(make_events(2), 2)) + 2, "op": "apply",
             "body": {"events": []}}
        )
        replica.ingest_chunk(2, 0, extra)
        assert replica.segment == 2
        # A late-arriving duplicate for the sealed segment is a no-op.
        assert replica.ingest_chunk(1, 0, data) == 0
        replica.close_files()

    def test_rotation_with_pending_tail_raises(self, tmp_path):
        data = wal_lines("t6", chunked(make_events(2), 2))
        replica = SessionReplica("t6", tmp_path / "r", 256, 1 << 20)
        replica.ingest_chunk(1, 0, data[:-3])  # torn final line
        with pytest.raises(ReplicationError):
            replica.ingest_chunk(2, 0, data[-3:])


class TestRotationRacingCursor:
    def test_stream_converges_across_rotation(self, tmp_path):
        server = durable_server(tmp_path, wal_segment_bytes=4096)
        replicas = replica_set(tmp_path)
        root = server.durability.sessions_root
        chunks = chunked(make_events(120), 8)
        server.execute(
            "open", {"session": "rot", "spec": SPEC, "durable": True}
        )
        # Interleave writes with tiny ship polls so the cursor chases
        # an actively rotating WAL instead of reading it at rest.
        seq = 2
        for chunk in chunks:
            server.execute(
                "apply", {"session": "rot", "seq": seq, "events": chunk}
            )
            seq += 1
            replicas.ingest(ship_wal(root, replicas.cursors(), 4096))
        stream_all(root, replicas, 4096)
        replica = replicas.replicas["rot"]
        assert replica.segment > 1, "WAL never rotated; test is vacuous"
        assert replica.resyncs == 0
        assert replica.session.snapshot() == reference_final(
            "rot", chunks
        )
        # The local copy is byte-identical, segment by segment.
        replica.close_files()
        primary_dir = root / session_dir_name("rot")
        for src in sorted(primary_dir.glob("wal-*.log")):
            assert (replica.dir / src.name).read_bytes() == \
                src.read_bytes()


class TestResync:
    def test_standby_killed_mid_replay_then_resynced(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(60), 6)
        drive(server, "kr", chunks)
        root = server.durability.sessions_root
        replicas = replica_set(tmp_path)
        # Partial replay, then the standby "dies": state and local
        # files vanish.
        replicas.ingest(ship_wal(root, replicas.cursors(), 4096))
        assert 0 < replicas.replicas["kr"].records
        for replica in replicas.replicas.values():
            replica.close_files()
        shutil.rmtree(replicas.sessions_root)
        fresh = replica_set(tmp_path)
        stream_all(root, fresh)
        assert fresh.replicas["kr"].session.snapshot() == \
            reference_final("kr", chunks)

    def test_explicit_resync_restarts_from_origin(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(40), 5)
        drive(server, "rs", chunks)
        root = server.durability.sessions_root
        replicas = replica_set(tmp_path)
        replicas.ingest(ship_wal(root, replicas.cursors(), 4096))
        replica = replicas.replicas["rs"]
        replica.resync()
        assert replica.cursor() == {"segment": 1, "offset": 0}
        assert replica.resyncs == 1
        stream_all(root, replicas)
        assert replica.session.snapshot() == reference_final(
            "rs", chunks
        )

    def test_stale_cursor_gets_reset_and_recovers(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(30), 5)
        drive(server, "sc", chunks)
        root = server.durability.sessions_root
        size = (root / session_dir_name("sc") /
                "wal-00000001.log").stat().st_size
        payload = ship_wal(root, {"sc": {"segment": 1,
                                         "offset": size + 64}})
        (entry,) = payload["sessions"]
        assert entry["reset"] is True and "chunks" not in entry
        replicas = replica_set(tmp_path)
        stream_all(root, replicas)
        replicas.ingest(payload)  # the reset forces a resync
        assert replicas.replicas["sc"].resyncs == 1
        stream_all(root, replicas)
        assert replicas.replicas["sc"].session.snapshot() == \
            reference_final("sc", chunks)


class TestPromotion:
    def standby(self, tmp_path) -> StandbyServer:
        config = ServerConfig(
            data_dir=str(tmp_path / "standby"),
            fsync_interval=0.0,
        )
        # Constructed but never start()ed: replication is driven by
        # hand so the test controls exactly how far the stream got.
        return StandbyServer(config, primary_port=1)

    def test_gates_sessions_until_promoted(self, tmp_path):
        standby = self.standby(tmp_path)
        with pytest.raises(SessionError) as err:
            standby.execute("apply", {"session": "x", "seq": 2,
                                      "events": []})
        assert err.value.code == "shard-unavailable"
        assert standby.execute("ping", {})["pong"] is True
        assert standby.standby_status()["promoted"] is False

    def test_promotion_catches_up_and_serves(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(80), 8)
        next_seq = drive(server, "pm", chunks)
        root = server.durability.sessions_root
        standby = self.standby(tmp_path)
        # The stream only saw a prefix when the primary "died".
        standby.replicas.ingest(
            ship_wal(root, standby.replicas.cursors(), 4096)
        )
        streamed = standby.replicas.replicas["pm"].records
        assert 0 < streamed < next_seq - 1
        promo = standby.execute(
            "promote", {"source": str(tmp_path / "primary")}
        )
        assert promo["promoted"] is True
        assert promo["sessions"] == 1
        assert promo["catchup_records"] > 0
        assert promo["replayed_records"] == next_seq - 1
        # Promotion is idempotent: the report is stable.
        assert standby.execute("promote", {}) == promo
        # It now serves, continuing the seq stream with a live WAL.
        more = chunked(make_events(16, base=0x9000), 8)
        for chunk in more:
            standby.execute(
                "apply", {"session": "pm", "seq": next_seq,
                          "events": chunk}
            )
            next_seq += 1
        assert standby.sessions.get("pm").snapshot() == \
            reference_final("pm", chunks + more)

    def test_promotion_at_offset_zero_keeps_the_first_segment(
        self, tmp_path
    ):
        """Catch-up that stops at byte 0 of a later segment (its first
        line is corrupt) still attaches the WAL writer there: the next
        append must not rotate back over segment 1, and a restart on
        the promoted data dir recovers every acknowledged record."""
        server = durable_server(tmp_path, wal_segment_bytes=4096)
        chunks = chunked(make_events(80), 8)
        next_seq = drive(server, "pm", chunks)
        server.durability.close_all()
        primary_dir = server.durability.session_dir("pm")
        fourth = primary_dir / "wal-00000004.log"
        data = bytearray(fourth.read_bytes())
        data[0] ^= 0x01  # the header line's CRC no longer matches
        fourth.write_bytes(bytes(data))
        # Catch-up keeps the records of segments 1-3.
        kept = sum(
            record["op"] != "_segment"
            for index in (1, 2, 3)
            for record in scan_wal_file(segment_path(primary_dir, index))[0]
        )
        assert 0 < kept < next_seq - 1
        standby = self.standby(tmp_path)
        promo = standby.promote({"source": str(tmp_path / "primary")})
        assert promo["sessions"] == 1
        assert promo["replayed_records"] == kept
        first = (standby.durability.session_dir("pm") /
                 "wal-00000001.log")
        before = first.read_bytes()
        extra = chunked(make_events(4, base=0x9000), 8)
        standby.execute("apply", {"session": "pm", "seq": kept + 1,
                                  "events": extra[0]})
        assert first.read_bytes() == before
        standby.durability.close_all()
        restarted = durable_server(tmp_path, name="standby")
        restarted.recover()
        session = restarted.sessions.get("pm")
        assert session.tracker.applied_seq == kept + 1
        restarted.durability.close_all()

    def test_torn_tail_on_primary_is_dropped(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(20), 5)
        next_seq = drive(server, "tt", chunks)
        wal = (server.durability.sessions_root /
               session_dir_name("tt") / "wal-00000001.log")
        intact = wal.read_bytes()
        torn = encode_record(
            {"seq": next_seq, "op": "apply", "body": {"events": []}}
        )[:-4]
        wal.write_bytes(intact + torn)
        standby = self.standby(tmp_path)
        promo = standby.promote({"source": str(tmp_path / "primary")})
        # The torn line was never acknowledged, so it must not count.
        assert promo["replayed_records"] == next_seq - 1
        assert standby.sessions.get("tt").snapshot() == \
            reference_final("tt", chunks)

    def test_prune_absent_drops_migrated_sessions(self, tmp_path):
        server = durable_server(tmp_path)
        drive(server, "keep", chunked(make_events(10), 5))
        drive(server, "gone", chunked(make_events(10), 5))
        root = server.durability.sessions_root
        standby = self.standby(tmp_path)
        stream_all(root, standby.replicas)
        assert len(standby.replicas.replicas) == 2
        # "gone" migrates off the primary before it dies.
        shutil.rmtree(root / session_dir_name("gone"))
        promo = standby.promote({"source": str(tmp_path / "primary")})
        assert promo["pruned_replicas"] == 1
        assert promo["sessions"] == 1
        assert standby.sessions.get("keep") is not None
        standby_gone = (standby.durability.sessions_root /
                        session_dir_name("gone"))
        assert not standby_gone.exists()

    def test_closed_session_finishes_tombstone(self, tmp_path):
        server = durable_server(tmp_path)
        chunks = chunked(make_events(10), 5)
        next_seq = drive(server, "cl", chunks)
        server.execute("close", {"session": "cl", "seq": next_seq})
        root = server.durability.sessions_root
        standby = self.standby(tmp_path)
        stream_all(root, standby.replicas)
        promo = standby.promote({"source": str(tmp_path / "primary")})
        assert promo["closed_sessions"] == 1
        assert promo["sessions"] == 0
        tomb = (standby.durability.sessions_root /
                session_dir_name("cl") / _TOMBSTONE)
        assert tomb.exists()


class TestShipWal:
    def test_budget_caps_one_poll(self, tmp_path):
        server = durable_server(tmp_path)
        drive(server, "bd", chunked(make_events(200), 10))
        root = server.durability.sessions_root
        payload = ship_wal(root, {}, 4096)
        assert payload["exhausted"] is True
        (entry,) = payload["sessions"]
        shipped = sum(len(c["data"]) for c in entry["chunks"])
        assert shipped <= 4096
        assert entry["cursor"]["offset"] == shipped

    def test_unknown_root_ships_nothing(self, tmp_path):
        payload = ship_wal(tmp_path / "nope", {}, 4096)
        assert payload == {"sessions": [], "exhausted": False}


class TestPollBackoff:
    def test_deterministic(self):
        a = poll_backoff(0.25, 2.0, 3, key="shard-00")
        b = poll_backoff(0.25, 2.0, 3, key="shard-00")
        assert a == b

    def test_jitter_bounds_and_cap(self):
        for streak in range(12):
            value = poll_backoff(0.25, 2.0, streak, key="s")
            interval = min(2.0, 0.25 * 2 ** streak)
            assert interval <= value <= interval * 1.25
        assert poll_backoff(0.25, 2.0, 50, key="s") <= 2.0 * 1.25

    def test_streak_grows_the_interval(self):
        assert poll_backoff(0.25, 2.0, 0) < poll_backoff(0.25, 2.0, 4)

    def test_keys_decorrelate(self):
        assert poll_backoff(0.25, 2.0, 2, key="a") != \
            poll_backoff(0.25, 2.0, 2, key="b")
