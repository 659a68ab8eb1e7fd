"""Bounded exactly-once replay cache: watermarks, persistence, policy.

The :class:`~repro.serve.session.SeqTracker` replay cache is bounded
twice over -- an entry-count cap and a byte watermark on serialized
response payloads -- because a long-lived durable session would
otherwise accumulate one cached response per mutating request forever
(and a handful of fat ``apply`` responses could dwarf any count cap).
These tests pin the eviction policy (oldest first, newest never), the
structured ``seq-too-old`` failure past the window, and the checkpoint
round-trip that keeps the *exact* window (bounds and entries) across
spill/recover.
"""

import pytest

from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import (
    SEQ_CACHE_BYTES,
    SEQ_CACHE_SIZE,
    SeqTracker,
    SessionError,
)

SPEC = {"kind": "component", "name": "lvp", "entries": 64}


def _entry(i: int, pad: int = 0) -> tuple:
    return ("ok", {"value": i, "pad": "x" * pad})


class TestCountBound:
    def test_cache_never_exceeds_cache_size(self):
        tracker = SeqTracker(cache_size=4)
        for seq in range(1, 41):
            tracker.record(seq, _entry(seq))
        assert tracker.cached_entries == 4
        assert tracker.applied_seq == 40

    def test_recent_replays_hit_old_replays_age_out(self):
        tracker = SeqTracker(cache_size=4)
        for seq in range(1, 11):
            tracker.record(seq, _entry(seq))
        assert tracker.check(10) == _entry(10)
        assert tracker.check(7) == _entry(7)
        with pytest.raises(SessionError) as excinfo:
            tracker.check(2)
        assert excinfo.value.code == "seq-too-old"

    def test_defaults_are_the_module_constants(self):
        tracker = SeqTracker()
        assert tracker.cache_size == SEQ_CACHE_SIZE
        assert tracker.cache_bytes == SEQ_CACHE_BYTES


class TestByteWatermark:
    def test_fat_entries_evict_before_the_count_cap(self):
        # Each entry serializes to ~120 bytes; the watermark allows ~4
        # of them while the count cap would allow 100.
        tracker = SeqTracker(cache_size=100, cache_bytes=500)
        for seq in range(1, 21):
            tracker.record(seq, _entry(seq, pad=80))
        assert tracker.cached_entries < 10
        assert tracker.cached_bytes <= 500
        assert tracker.check(20) == _entry(20, pad=80)

    def test_newest_entry_survives_even_over_budget(self):
        # The most recent response is the one a retry needs *right
        # now*; it is never evicted, even when it alone busts the
        # watermark.
        tracker = SeqTracker(cache_size=8, cache_bytes=64)
        tracker.record(1, _entry(1, pad=4096))
        assert tracker.cached_entries == 1
        assert tracker.check(1) == _entry(1, pad=4096)

    def test_unserializable_entries_get_a_nominal_charge(self):
        weird = ("ok", {"blob": object()})
        assert SeqTracker.entry_bytes(weird) == 64
        tracker = SeqTracker(cache_size=4, cache_bytes=1 << 20)
        tracker.record(1, weird)
        assert tracker.cached_bytes == 64


class TestHeaderRoundTrip:
    def test_policy_and_entries_survive_export_import(self):
        tracker = SeqTracker(cache_size=5, cache_bytes=4096)
        for seq in range(1, 9):
            tracker.record(seq, _entry(seq))
        fresh = SeqTracker()  # default bounds; header must override
        fresh.load_entries(
            tracker.applied_seq,
            tracker.export_entries(),
            tracker.export_policy(),
        )
        assert fresh.cache_size == 5
        assert fresh.cache_bytes == 4096
        assert fresh.applied_seq == 8
        # Entries come back as tuples with identical replay semantics.
        assert fresh.check(8) == ("ok", {"value": 8, "pad": ""})
        with pytest.raises(SessionError):
            fresh.check(1)

    def test_over_budget_header_is_trimmed_on_load(self):
        # A header written under looser bounds must not reinstate an
        # over-budget cache on a process running tighter ones.
        loose = SeqTracker(cache_size=50)
        for seq in range(1, 31):
            loose.record(seq, _entry(seq))
        tight = SeqTracker(cache_size=3)
        tight.load_entries(loose.applied_seq, loose.export_entries())
        assert tight.cached_entries == 3
        assert tight.check(30) is not None


class TestPersistenceThroughTheServer:
    def test_replay_window_survives_release_and_adopt(self, tmp_path):
        """The regression this file exists for: the bounds and the
        surviving entries ride checkpoint headers, so a migrated or
        recovered session keeps the exact replay window it had."""
        server = PredictionServer(ServerConfig(
            data_dir=str(tmp_path / "state"),
            fsync_interval=0.0,
            seq_cache_size=3,
            seq_cache_bytes=1 << 16,
        ))
        opened = server.execute("open", {
            "session": "w", "spec": SPEC, "durable": True,
        })
        assert opened["applied_seq"] == 1
        responses = {}
        for seq in range(2, 9):
            responses[seq] = server.execute("apply", {
                "session": "w", "seq": seq,
                "events": [{"k": "l", "pc": 64, "addr": 256, "size": 4,
                            "value": seq, "pred": True}],
            })
        # Quiesce to disk (checkpoint + freeze), then recover.
        released = server.execute("release", {"session": "w"})
        assert released["released"] == "w"
        adopted = server.execute("adopt", {"session": "w"})
        assert adopted["applied_seq"] == 8
        tracker = server.sessions.get("w").tracker
        assert tracker.cache_size == 3
        assert tracker.cached_entries <= 3
        # Recent seq replays the cached response; an aged-out one fails
        # structurally instead of re-executing.
        assert server.execute("apply", {
            "session": "w", "seq": 8, "events": [],
        }) == responses[8]
        with pytest.raises(SessionError) as excinfo:
            server.execute("apply", {"session": "w", "seq": 2,
                                     "events": []})
        assert excinfo.value.code == "seq-too-old"

    def test_frozen_session_rejects_requests_until_adopted(self, tmp_path):
        server = PredictionServer(ServerConfig(
            data_dir=str(tmp_path / "state"), fsync_interval=0.0,
        ))
        server.execute("open", {
            "session": "f", "spec": SPEC, "durable": True,
        })
        server.execute("release", {"session": "f"})
        with pytest.raises(SessionError) as excinfo:
            server.execute("apply", {"session": "f", "seq": 2,
                                     "events": []})
        assert excinfo.value.code == "session-migrating"
        server.execute("adopt", {"session": "f"})
        result = server.execute("apply", {
            "session": "f", "seq": 2, "events": [],
        })
        assert result == {"results": []}

    def test_in_memory_sessions_take_the_configured_bounds(self, tmp_path):
        """Every session's tracker runs under the server's bounds: a
        non-durable session answers an aged-out replay exactly as a
        durable one on the same config does."""
        server = PredictionServer(ServerConfig(
            data_dir=str(tmp_path / "state"), fsync_interval=0.0,
            seq_cache_size=1,
        ))
        server.execute("open", {"session": "mem", "spec": SPEC})
        server.execute("open", {
            "session": "dur", "spec": SPEC, "durable": True,
        })
        first = {"mem": 1, "dur": 2}
        for sid, seq in first.items():
            for step in range(3):
                server.execute("apply", {
                    "session": sid, "seq": seq + step, "events": [],
                })
        for sid, seq in first.items():
            with pytest.raises(SessionError) as excinfo:
                server.execute("apply", {"session": sid, "seq": seq,
                                         "events": []})
            assert excinfo.value.code == "seq-too-old", sid
