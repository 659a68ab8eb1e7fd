"""Tests for the serving layer's session abstraction.

Covers spec resolution from wire-friendly JSON, the standalone
predict/train API, the streaming event vocabulary's validation, memory
semantics for address predictions, and the manager's LRU eviction
under count and byte budgets.
"""

import pytest

from repro.memory.image import MemoryImage
from repro.serve.session import (
    MAX_WORKLOAD_LENGTH,
    PREDICTOR_NAMES,
    PredictorSession,
    SessionError,
    SessionManager,
    resolve_spec,
    spec_from_name,
)


class TestSpecFromName:
    @pytest.mark.parametrize("name", PREDICTOR_NAMES)
    def test_every_listed_name_builds_a_session(self, name):
        session = PredictorSession(spec_from_name(name, 64))
        assert session.predictor is not None

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(SessionError) as excinfo:
            spec_from_name("magic")
        assert excinfo.value.code == "bad-spec"
        for name in PREDICTOR_NAMES:
            assert name in str(excinfo.value)


class TestResolveSpec:
    def test_entries_shorthand_builds_homogeneous_composite(self):
        spec = resolve_spec({"kind": "composite", "entries": 128})
        config = spec["config"]
        assert config.lvp_entries == 128
        assert config.sap_entries == 128

    def test_config_dict_fields_applied(self):
        spec = resolve_spec({
            "kind": "composite",
            "config": {"lvp_entries": 32, "epoch_instructions": 5000},
        })
        assert spec["config"].lvp_entries == 32
        assert spec["config"].epoch_instructions == 5000

    def test_unknown_config_field_lists_valid_ones(self):
        with pytest.raises(SessionError) as excinfo:
            resolve_spec({"kind": "composite", "config": {"lvp_size": 1}})
        assert excinfo.value.code == "bad-spec"
        assert "lvp_size" in str(excinfo.value)
        assert "lvp_entries" in str(excinfo.value)

    def test_extra_components_lists_become_tuples(self):
        spec = resolve_spec({
            "kind": "composite",
            "config": {"extra_components": [["lap", 64]]},
        })
        assert spec["config"].extra_components == (("lap", 64),)

    def test_non_composite_specs_pass_through(self):
        spec = {"kind": "component", "name": "lvp", "entries": 64}
        assert resolve_spec(spec) is spec
        assert resolve_spec(None) is None

    def test_bad_entries_rejected(self):
        with pytest.raises(SessionError):
            resolve_spec({"kind": "composite", "entries": "lots"})


class TestPredictTrain:
    def test_train_without_predict_fails(self):
        session = PredictorSession(spec_from_name("lvp", 64))
        with pytest.raises(SessionError, match="pending"):
            session.train(0x100, 8, 1)

    def test_predict_then_train_resolves_oldest_first(self):
        session = PredictorSession(spec_from_name("lvp", 64))
        session.predict(0x40)
        session.predict(0x48)
        assert session.pending == 2
        session.train(0x1000, 8, 7)
        assert session.pending == 1
        assert session.loads == 1

    def test_lvp_learns_a_constant_value(self):
        # LVP's FPC confidence needs ~64 effective consecutive hits.
        session = PredictorSession(spec_from_name("lvp", 64))
        last = None
        for _ in range(200):
            session.predict(0x40)
            last = session.train(0x1000, 8, 99)
        assert last["predicted"]
        assert last["value"] == 99
        assert last["correct"]
        assert session.accuracy > 0.0

    def test_address_prediction_scored_against_session_memory(self):
        session = PredictorSession(spec_from_name("cap", 64))
        # The load at 0x40 always hits address 0x1000; its correctness
        # must be judged by reading the *session's* memory image.
        session.apply_batch([
            {"k": "s", "pc": 0x10, "addr": 0x1000, "size": 8, "value": 99}
        ])
        last = None
        for _ in range(40):
            session.predict(0x40)
            last = session.train(0x1000, 8, 99)
        assert last["predicted"]
        assert last["kind"] == "address"
        assert last["addr"] == 0x1000
        assert last["correct"]

    def test_bad_train_size_rejected(self):
        session = PredictorSession(spec_from_name("lvp", 64))
        session.predict(0x40)
        with pytest.raises(SessionError, match="size"):
            session.train(0x1000, 3, 7)

    def test_bad_pc_rejected(self):
        session = PredictorSession(spec_from_name("lvp", 64))
        for pc in (-1, "pc", True, None):
            with pytest.raises(SessionError, match="pc"):
                session.predict(pc)


class TestApplyEvent:
    """One event at a time through :meth:`PredictorSession.apply_batch`."""

    def _session(self, name="composite"):
        return PredictorSession(spec_from_name(name, 64))

    def test_store_updates_memory_for_address_predictions(self):
        session = self._session()
        session.apply_batch([
            {"k": "s", "pc": 0x10, "addr": 0x2000, "size": 8, "value": 5}
        ])
        assert session.memory.read(0x2000, 8) == 5
        assert session.instructions == 1

    def test_tick_advances_clock_without_history_changes(self):
        session = self._session()
        direction = session.histories.direction
        session.apply_batch([{"k": "t", "n": 500}])
        assert session.instructions == 500
        assert session.histories.direction == direction

    def test_load_event_counts_and_records(self):
        session = self._session()
        record = session.apply_batch([{
            "k": "l", "pc": 0x40, "addr": 0x2000, "size": 8,
            "value": 1, "pred": True,
        }])[0]
        assert record is not None and "predicted" in record
        assert session.loads == 1

    def test_unpredictable_load_still_pushes_history(self):
        session = self._session()
        load_path = session.histories.load_path
        record = session.apply_batch([{
            "k": "l", "pc": 0x40, "addr": 0x2000, "size": 8,
            "value": 1, "pred": False,
        }])[0]
        assert record is None
        assert session.loads == 0
        assert session.histories.load_path != load_path

    @pytest.mark.parametrize("event,fragment", [
        ("not-a-dict", "must be a dict"),
        ({"k": "x"}, "unknown event kind"),
        ({"k": "b"}, "'pc'"),
        ({"k": "b", "pc": True}, "'pc'"),
        ({"k": "s", "pc": 1, "addr": 2, "size": 3, "value": 0}, "size"),
        ({"k": "s", "pc": 1, "addr": 2, "size": 8, "value": "x"}, "value"),
        ({"k": "l", "pc": 1, "addr": 2, "size": 8, "value": True}, "value"),
        ({"k": "l", "pc": 1, "addr": -2, "size": 8, "value": 0}, "addr"),
        ({"k": "t", "n": -1}, "'n'"),
    ])
    def test_malformed_events_raise_session_errors(self, event, fragment):
        session = self._session("lvp")
        with pytest.raises(SessionError, match=fragment):
            session.apply_batch([event])

    def test_snapshot_shape(self):
        session = PredictorSession(
            spec_from_name("composite", 64), session_id="s1"
        )
        snap = session.snapshot()
        assert snap["session"] == "s1"
        assert snap["estimated_bytes"] > 0
        assert 0.0 <= snap["accuracy"] <= 1.0

    def test_accuracy_without_predictions_is_zero(self):
        # A session that never predicted has demonstrated nothing; a
        # vacuous 1.0 would rank idle sessions above working ones.
        session = PredictorSession(spec_from_name("lvp", 64))
        assert session.accuracy == 0.0
        assert session.snapshot()["accuracy"] == 0.0


class TestApplyBatch:
    """How events are split into batches must not matter, and the
    partial-failure contract and permissive edges hold."""

    def _events(self, length=2000):
        from repro.serve.loadgen import trace_to_events
        from repro.workloads.generator import generate_trace

        return trace_to_events(generate_trace("coremark", length))

    def _replay(self, spec, events, chunk):
        from repro.serve.session import apply_events

        session = PredictorSession(spec)
        results = []
        for start in range(0, len(events), chunk):
            piece = events[start:start + chunk]
            results.extend(apply_events(session, piece)["results"])
        return session, results

    @pytest.mark.parametrize("spec", [
        {"kind": "composite", "entries": 64},
        # Tiny epochs: a batch defers per-event ticks, so epoch
        # boundaries (monitor/fusion) must land identically whether
        # they fall inside a batch or between one-event batches.
        {"kind": "composite", "entries": 64,
         "config": {"epoch_instructions": 97}},
        {"kind": "component", "name": "sap", "entries": 64},
        None,
    ])
    def test_batch_matches_per_event_replay(self, spec):
        events = self._events()
        batched, batched_results = self._replay(spec, events, 256)
        sequential, sequential_results = self._replay(spec, events, 1)
        assert batched_results == sequential_results
        assert batched.snapshot() == sequential.snapshot()
        assert (batched.histories.folded_values()
                == sequential.histories.folded_values())

    def test_malformed_event_mid_batch_keeps_prefix_applied(self):
        from repro.serve.session import apply_events

        session = PredictorSession(spec_from_name("lvp", 64))
        with pytest.raises(SessionError, match="event 2: .*'n'"):
            apply_events(session, [
                {"k": "b", "pc": 4, "taken": True},
                {"k": "t", "n": 10},
                {"k": "t", "n": True},
                {"k": "b", "pc": 8},
            ])
        # The branch and the first tick stayed applied; the offender
        # was counted as an event but contributed no instructions.
        assert session.events == 3
        assert session.instructions == 11

    def test_dict_subclass_events_still_accepted(self):
        from repro.serve.session import apply_events

        class EventDict(dict):
            pass

        session = PredictorSession(None)
        out = apply_events(session, [EventDict({"k": "t", "n": 3})])
        assert out == {"results": [None]}
        assert session.instructions == 3


class TestSessionManager:
    def test_open_get_close_lifecycle(self):
        manager = SessionManager()
        manager.open("a", spec_from_name("lvp", 64))
        assert "a" in manager and len(manager) == 1
        assert manager.get("a").session_id == "a"
        snap = manager.close("a")
        assert snap["session"] == "a"
        assert "a" not in manager

    def test_duplicate_open_rejected(self):
        manager = SessionManager()
        manager.open("a", None)
        with pytest.raises(SessionError) as excinfo:
            manager.open("a", None)
        assert excinfo.value.code == "session-exists"

    @pytest.mark.parametrize("bad_id", ["", 7, None, ["x"], {"x": 1}])
    def test_non_string_ids_rejected_everywhere(self, bad_id):
        manager = SessionManager()
        with pytest.raises(SessionError):
            manager.open(bad_id, None)
        with pytest.raises(SessionError) as excinfo:
            manager.get(bad_id)
        assert excinfo.value.code == "unknown-session"
        with pytest.raises(SessionError):
            manager.close(bad_id)

    def test_lru_eviction_over_session_count(self):
        manager = SessionManager(max_sessions=2)
        manager.open("a", None)
        manager.open("b", None)
        manager.get("a")  # b is now the least recently used
        manager.open("c", None)
        assert manager.evictions == 1
        assert "b" not in manager
        assert "a" in manager and "c" in manager

    def test_byte_budget_evicts_idlest_but_never_active(self):
        manager = SessionManager(max_sessions=10, max_total_bytes=1)
        manager.open("a", spec_from_name("lvp", 64))
        manager.open("b", spec_from_name("lvp", 64))
        # Budget of one byte: everything evictable goes, but the
        # session being opened survives.
        assert "b" in manager
        assert "a" not in manager
        assert manager.evictions == 1

    def test_unknown_workload_open_lists_valid_names(self):
        manager = SessionManager()
        with pytest.raises(SessionError) as excinfo:
            manager.open("a", None, workload={"name": "mystery"})
        assert excinfo.value.code == "unknown-workload"
        assert "gcc2k" in str(excinfo.value)

    def test_workload_length_bounds_enforced(self):
        manager = SessionManager()
        for length in (1, MAX_WORKLOAD_LENGTH + 1, "many", True):
            with pytest.raises(SessionError) as excinfo:
                manager.open(
                    "a", None,
                    workload={"name": "coremark", "length": length},
                )
            assert excinfo.value.code == "bad-spec"

    def test_open_with_workload_copies_initial_memory(self):
        from repro.workloads.generator import generate_trace

        manager = SessionManager()
        session = manager.open(
            "a", None, workload={"name": "coremark", "length": 500},
        )
        image = generate_trace("coremark", 500).initial_memory
        assert isinstance(session.memory, MemoryImage)
        assert session.memory.to_word_map() == image.to_word_map()
        # A copy, not the shared trace image.
        session.memory.write(0x10, 8, 123)
        assert image.to_word_map() != session.memory.to_word_map()

    def test_snapshot_aggregates_counters(self):
        manager = SessionManager()
        session = manager.open("a", spec_from_name("lvp", 64))
        for _ in range(3):
            session.predict(0x40)
            session.train(0x1000, 8, 9)
        snap = manager.snapshot()
        assert snap["active"] == 1
        assert snap["opened"] == 1
        assert snap["loads"] == 3
        assert snap["total_bytes"] > 0
