"""Tests for the context-aware value predictor (CVP)."""

import pytest
from conftest import make_outcome, make_probe

from repro.common.rng import DeterministicRng
from repro.predictors.cvp import CvpPredictor, split_entries


def _cvp(entries=1024, seed=0):
    return CvpPredictor(entries, DeterministicRng(seed))


class TestSplit:
    def test_split_is_half_quarter_quarter(self):
        assert split_entries(1024) == (512, 256, 256)
        assert split_entries(64) == (32, 16, 16)

    def test_split_sums_to_total(self):
        for total in (4, 64, 1024, 4096):
            assert sum(split_entries(total)) == total

    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError):
            split_entries(100)
        with pytest.raises(ValueError):
            split_entries(2)


class TestContextLearning:
    def test_same_context_constant_value(self):
        cvp = _cvp()
        for _ in range(60):
            cvp.train(*make_outcome(pc=0x1000, value=5, direction=0b10110))
        prediction = cvp.predict(*make_probe(pc=0x1000, direction=0b10110))
        assert prediction is not None
        assert prediction == 5

    def test_history_separates_values(self):
        """Different branch histories learn different values for the
        same PC -- the defining CVP capability."""
        cvp = _cvp()
        for _ in range(60):
            cvp.train(*make_outcome(pc=0x1000, value=5, direction=0b00000))
            cvp.train(*make_outcome(pc=0x1000, value=9, direction=0b11111))
        assert cvp.predict(*make_probe(pc=0x1000, direction=0b00000)) == 5
        assert cvp.predict(*make_probe(pc=0x1000, direction=0b11111)) == 9

    def test_lvp_cannot_do_that(self):
        """Contrast test: alternating values defeat LVP."""
        from repro.predictors.lvp import LvpPredictor

        lvp = LvpPredictor(1024, DeterministicRng(0))
        for _ in range(120):
            lvp.train(*make_outcome(pc=0x1000, value=5))
            lvp.train(*make_outcome(pc=0x1000, value=9))
        assert lvp.predict(*make_probe(pc=0x1000)) is None

    def test_warmup_roughly_sixteen(self):
        cvp = _cvp(entries=4096, seed=5)
        warmups = []
        for k in range(50):
            pc = 0x30000 + 64 * k
            for i in range(1, 200):
                cvp.train(*make_outcome(pc=pc, value=3, direction=0b101))
                if cvp.predict(*make_probe(pc=pc, direction=0b101)):
                    warmups.append(i)
                    break
        mean = sum(warmups) / len(warmups)
        assert 16 * 0.6 < mean < 16 * 1.6

    def test_value_change_resets(self):
        cvp = _cvp()
        for _ in range(60):
            cvp.train(*make_outcome(pc=0x1000, value=5, direction=0b111))
        cvp.train(*make_outcome(pc=0x1000, value=6, direction=0b111))
        assert cvp.predict(*make_probe(pc=0x1000, direction=0b111)) is None


class TestStructure:
    def test_three_tables(self):
        assert len(_cvp()._tables()) == 3

    def test_storage_is_total_entries_times_81(self):
        assert _cvp(entries=1024).storage_bits() == 1024 * 81

    def test_fusion_banks_apply_to_all_tables(self):
        cvp = _cvp(entries=1024)
        cvp.grant_extra_banks(1)
        assert cvp.total_entries == 2048
        cvp.revoke_extra_banks()
        assert cvp.total_entries == 1024
