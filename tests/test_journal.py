"""Tests for the crash-safe JSONL journal and atomic JSON writes."""

import json
import os

import pytest

from repro.common.atomicfile import atomic_write_json
from repro.common.hashing import stable_digest
from repro.harness.journal import Journal, JournalError


class TestStableDigest:
    def test_deterministic_and_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_handles_dataclasses_and_tuples(self):
        from repro.composite.config import CompositeConfig

        a = CompositeConfig().homogeneous(256)
        b = CompositeConfig().homogeneous(256)
        c = CompositeConfig().homogeneous(512)
        assert stable_digest(a) == stable_digest(b)
        assert stable_digest(a) != stable_digest(c)
        assert stable_digest((1, 2)) == stable_digest([1, 2])


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


class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.start({"type": "campaign", "campaign": "c1", "cells": 2})
        journal.append({"type": "cell", "id": "a", "status": "ok", "value": 1})
        journal.append({"type": "cell", "id": "b", "status": "ok", "value": 2})
        journal.close()
        records = list(journal.read())
        assert [r["type"] for r in records] == ["campaign", "cell", "cell"]
        assert journal.corrupt_lines == 0

    def test_load_completed_last_record_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.start({"type": "campaign", "campaign": "c1", "cells": 1})
        journal.append({"type": "cell", "id": "a", "status": "ok", "value": 1})
        journal.append({"type": "cell", "id": "a", "status": "failed",
                        "error": "x"})
        journal.append({"type": "cell", "id": "a", "status": "ok", "value": 3})
        journal.close()
        assert journal.load_completed("c1") == {"a": 3}

    def test_campaign_mismatch_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.start({"type": "campaign", "campaign": "c1", "cells": 0})
        journal.close()
        with pytest.raises(JournalError, match="campaign"):
            journal.load_completed("other")

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.start({"type": "campaign", "campaign": "c1", "cells": 2})
        journal.append({"type": "cell", "id": "a", "status": "ok", "value": 1})
        journal.close()
        # Simulate a crash mid-append: half a record, no newline.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "cell", "id": "b", "sta')
        assert journal.load_completed("c1") == {"a": 1}
        assert journal.corrupt_lines == 1

    def test_open_append_after_torn_write_starts_clean_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.start({"type": "campaign", "campaign": "c1", "cells": 2})
        journal.append_corrupted(
            {"type": "cell", "id": "a", "status": "ok", "value": 1}
        )
        journal.close()
        journal.open_append()
        journal.append({"type": "cell", "id": "b", "status": "ok", "value": 2})
        journal.close()
        assert journal.load_completed("c1") == {"b": 2}
        assert journal.corrupt_lines >= 1

    def test_missing_file_reads_empty(self, tmp_path):
        journal = Journal(tmp_path / "missing.jsonl")
        assert list(journal.read()) == []
        assert journal.load_completed("c1") == {}

    def test_append_requires_open(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(JournalError):
            journal.append({"type": "cell"})

    def test_blank_and_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"type": "campaign", "campaign": "c1", "cells": 1}\n'
            "\n"
            "not json at all\n"
            '[1, 2, 3]\n'
            '{"type": "cell", "id": "a", "status": "ok", "value": 9}\n'
        )
        journal = Journal(path)
        assert journal.load_completed("c1") == {"a": 9}
        assert journal.corrupt_lines == 2
