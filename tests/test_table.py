"""Tests for the banked tagged table (fusion substrate)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import pc_index, pc_tag
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.lap import LapPredictor
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor
from repro.predictors.svp import SvpPredictor
from repro.predictors.table import INVALID_TAG, BankedTable

from conftest import make_outcome

_FIELDS = (("tag", INVALID_TAG), ("payload", 0), ("confidence", 0))
TAG, PAYLOAD, CONFIDENCE = range(3)


class TestLayout:
    def test_columns_start_at_defaults(self):
        table = BankedTable(4, _FIELDS)
        assert table.fields == ("tag", "payload", "confidence")
        assert table.banks == [([INVALID_TAG] * 4, [0] * 4, [0] * 4)]
        assert list(table.rows()) == [(INVALID_TAG, 0, 0)] * 4

    @pytest.mark.parametrize("fields", [
        (("payload", 0), ("tag", INVALID_TAG), ("confidence", 0)),
        (("tag", 0), ("payload", 0), ("confidence", 0)),
        (("tag", INVALID_TAG), ("confidence", 0), ("payload", 0)),
    ])
    def test_tag_first_and_confidence_last_required(self, fields):
        with pytest.raises(ValueError):
            BankedTable(4, fields)

    def test_capacity_changes_keep_bank_zero_columns(self):
        table = BankedTable(4, _FIELDS)
        bank0 = table.banks[0]
        columns = list(bank0)
        table.add_banks(2)
        table.flush()
        table.remove_extra_banks()
        assert table.banks[0] is bank0
        assert all(a is b for a, b in zip(table.banks[0], columns))


class TestLookup:
    def test_miss_on_empty(self):
        table = BankedTable(8, _FIELDS)
        assert table.find(0, 5) is None

    def test_find_after_write(self):
        table = BankedTable(8, _FIELDS)
        bank, hit = table.find_or_victim(3, 7)
        assert not hit
        bank[TAG][3] = 7
        bank[PAYLOAD][3] = 42
        found = table.find(3, 7)
        assert found is not None and found[PAYLOAD][3] == 42

    def test_victim_prefers_invalid(self):
        table = BankedTable(4, _FIELDS)
        table.add_banks(1)
        first, _ = table.find_or_victim(0, 1)
        first[TAG][0] = 1
        first[CONFIDENCE][0] = 0  # low confidence but valid
        victim, hit = table.find_or_victim(0, 2)
        assert not hit
        assert victim is table.banks[1]  # the bank-2 invalid slot
        assert victim[TAG][0] == INVALID_TAG

    def test_victim_prefers_lowest_confidence(self):
        table = BankedTable(4, _FIELDS)
        table.add_banks(1)
        a, _ = table.find_or_victim(0, 1)
        a[TAG][0], a[CONFIDENCE][0] = 1, 3
        # fill second bank
        c, hit = table.find_or_victim(0, 2)
        assert not hit
        c[TAG][0], c[CONFIDENCE][0] = 2, 1
        victim, hit = table.find_or_victim(0, 9)
        assert not hit
        assert victim is c  # confidence 1 < 3


class TestBanks:
    def test_add_and_remove_banks(self):
        table = BankedTable(16, _FIELDS)
        assert table.num_banks == 1
        table.add_banks(3)
        assert table.num_banks == 4
        assert table.total_entries == 64
        table.remove_extra_banks()
        assert table.num_banks == 1

    def test_original_bank_survives_unfusion(self):
        table = BankedTable(4, _FIELDS)
        bank, _ = table.find_or_victim(1, 5)
        bank[TAG][1] = 5
        table.add_banks(2)
        table.remove_extra_banks()
        assert table.find(1, 5) is not None

    def test_negative_banks_rejected(self):
        with pytest.raises(ValueError):
            BankedTable(4, _FIELDS).add_banks(-1)

    def test_flush(self):
        table = BankedTable(4, _FIELDS)
        bank, _ = table.find_or_victim(0, 3)
        bank[TAG][0] = 3
        bank[CONFIDENCE][0] = 2
        table.flush()
        assert table.find(0, 3) is None

    def test_rows_iterates_all_banks(self):
        table = BankedTable(4, _FIELDS)
        table.add_banks(1)
        table.banks[1][PAYLOAD][2] = 9
        rows = list(table.rows())
        assert len(rows) == 8
        assert rows[4 + 2] == (INVALID_TAG, 9, 0)


class TestComponentColumns:
    @pytest.mark.parametrize("make", [
        LvpPredictor, SapPredictor, SvpPredictor, LapPredictor,
        CvpPredictor, CapPredictor,
    ])
    def test_pickled_component_follows_fusion(self, make):
        """A pickled component's bank-0 fast path still aliases its
        table, so banks granted after a restore are searched."""
        original = make(8)
        outcomes = [make_outcome(pc=0x1000 + 4 * k, addr=0x8000 + 8 * k,
                                 value=k, load_path=k)
                    for k in range(12)]
        for outcome in outcomes[:4]:
            original.train(*outcome)
        restored = pickle.loads(pickle.dumps(original))
        for predictor in (original, restored):
            predictor.grant_extra_banks(2)
            for outcome in outcomes:
                predictor.train(*outcome)

        def state(predictor):
            return [list(t.rows()) for t in predictor._tables()]

        assert state(restored) == state(original)
        assert any(row[0] != INVALID_TAG
                   for table in original._tables()
                   for row in list(table.rows())[table.sets:])


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=7),    # index
        st.integers(min_value=0, max_value=30),   # tag
    ), max_size=60))
    def test_find_agrees_with_shadow(self, operations):
        """After inserting (index, tag) pairs, find() must return the
        bank whose tag was most recently installed at that index, as
        long as it has not been victimized."""
        table = BankedTable(8, _FIELDS)
        for index, tag in operations:
            bank, hit = table.find_or_victim(index, tag)
            if not hit:
                bank[TAG][index] = tag
                bank[CONFIDENCE][index] = 0
            found = table.find(index, tag)
            assert found is not None and found[TAG][index] == tag


# ----------------------------------------------------------------------
# Semantics any table representation must keep, pinned through the
# components' public surface and ``rows()`` alone
# ----------------------------------------------------------------------


def _aliases(index_bits, count, index=1):
    """``count`` load PCs sharing one PC-hashed index, tags distinct."""
    found = {}
    pc = 0x1000
    while len(found) < count:
        if pc_index(pc, index_bits) == index:
            found.setdefault(pc_tag(pc, 14), pc)
        pc += 4
    return list(found.values())


def _bank_rows(table):
    rows = list(table.rows())
    return [rows[b * table.sets:(b + 1) * table.sets]
            for b in range(table.num_banks)]


class TestPinnedSemantics:
    @pytest.mark.parametrize("make", [LvpPredictor, SapPredictor,
                                      SvpPredictor, LapPredictor])
    def test_flush_leaves_payload_fields(self, make):
        """flush() invalidates tag and confidence only: value, stride,
        address and size fields keep their stale contents."""
        predictor = make(16)
        predictor.grant_extra_banks(1)
        for k in range(40):
            predictor.train(*make_outcome(
                pc=0x1000 + 4 * (k % 24), addr=0x8000 + 24 * k,
                value=7 * k + 1, size=(1, 2, 4, 8)[k % 4],
            ))
        (table,) = predictor._tables()
        before = list(table.rows())
        assert any(any(row[1:-1]) for row in before)
        predictor.flush()
        assert list(table.rows()) == [
            (INVALID_TAG, *row[1:-1], 0) for row in before
        ]

    def test_banks_added_after_revert_start_at_defaults(self):
        predictor = LvpPredictor(4)
        (table,) = predictor._tables()
        defaults = list(table.rows())
        predictor.grant_extra_banks(2)
        for k, pc in enumerate(_aliases(table.index_bits, 3)):
            predictor.train(*make_outcome(pc=pc, value=100 + k))
        assert _bank_rows(table)[2][1][0] != INVALID_TAG
        predictor.revoke_extra_banks()
        kept = _bank_rows(table)[0]
        predictor.grant_extra_banks(2)
        banks = _bank_rows(table)
        assert banks[0] == kept
        assert banks[1] == banks[2] == defaults

    def test_victim_order_across_three_banks(self):
        """On a miss: an invalid entry first, then the lowest
        confidence, then the first bank on ties."""
        # LAP's first FPC step has probability 1, so one repeat of an
        # address deterministically lifts confidence from 0 to 1.
        predictor = LapPredictor(4)
        (table,) = predictor._tables()
        predictor.grant_extra_banks(2)
        a, b, c, d, e = _aliases(table.index_bits, 5)

        def train(pc):
            predictor.train(*make_outcome(pc=pc, addr=pc << 4))

        def at_index():  # (tag, confidence) per bank at the shared index
            return [(bank[1][0], bank[1][-1]) for bank in _bank_rows(table)]

        def tag(pc):
            return pc_tag(pc, 14)

        train(a)                       # first invalid bank
        train(b)
        train(b)
        assert at_index() == [(tag(a), 0), (tag(b), 1), (INVALID_TAG, 0)]
        train(c)                       # invalid beats a valid conf-0 entry
        assert at_index() == [(tag(a), 0), (tag(b), 1), (tag(c), 0)]
        train(a)
        train(d)                       # lowest confidence
        assert at_index() == [(tag(a), 1), (tag(b), 1), (tag(d), 0)]
        train(d)
        train(e)                       # all tied: the first bank
        assert at_index() == [(tag(e), 0), (tag(b), 1), (tag(d), 1)]
