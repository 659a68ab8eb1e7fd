"""Tests for the EVES baseline (E-Stride + E-VTAGE)."""

import pytest
from conftest import chosen_prediction, make_outcome, make_probe

from repro.common.rng import DeterministicRng
from repro.eves.estride import EStridePredictor
from repro.eves.evtage import EVtagePredictor
from repro.eves.eves import EvesConfig, EvesPredictor, eves_8kb, eves_32kb, eves_infinite
from repro.predictors.types import CHOSEN, CONFIDENT


class TestEStride:
    def test_predicts_strided_values(self):
        predictor = EStridePredictor(256, DeterministicRng(0))
        for i in range(200):
            predictor.train(*make_outcome(pc=0x1000, value=100 + 3 * i))
        prediction = predictor.predict(*make_probe(pc=0x1000))
        assert prediction is not None
        assert prediction == 100 + 3 * 200

    def test_inflight_compensation(self):
        predictor = EStridePredictor(256, DeterministicRng(0))
        for i in range(200):
            predictor.train(*make_outcome(pc=0x1000, value=10 + 2 * i))
        p0 = predictor.predict(*make_probe(pc=0x1000, inflight=0))
        p2 = predictor.predict(*make_probe(pc=0x1000, inflight=2))
        assert p2 == p0 + 2 * 2

    def test_constant_values_are_stride_zero(self):
        predictor = EStridePredictor(256, DeterministicRng(0))
        for _ in range(100):
            predictor.train(*make_outcome(pc=0x1000, value=55))
        assert predictor.predict(*make_probe(pc=0x1000)) == 55

    def test_stride_break_resets(self):
        predictor = EStridePredictor(256, DeterministicRng(0))
        for i in range(200):
            predictor.train(*make_outcome(pc=0x1000, value=3 * i))
        predictor.train(*make_outcome(pc=0x1000, value=999_999))
        assert predictor.predict(*make_probe(pc=0x1000)) is None

    def test_random_values_never_confident(self):
        predictor = EStridePredictor(256, DeterministicRng(0))
        rng = DeterministicRng(9, "vals")
        for _ in range(300):
            predictor.train(*make_outcome(pc=0x1000,
                                         value=rng.randint(0, 1 << 30)))
        assert predictor.predict(*make_probe(pc=0x1000)) is None


class TestEVtage:
    def test_learns_constant_value(self):
        predictor = EVtagePredictor(rng=DeterministicRng(0))
        for _ in range(200):
            predictor.train(*make_outcome(pc=0x1000, value=7, direction=0b1))
        assert predictor.predict(*make_probe(pc=0x1000, direction=0b1)) == 7

    def test_context_separation(self):
        predictor = EVtagePredictor(rng=DeterministicRng(0))
        for _ in range(400):
            predictor.train(*make_outcome(pc=0x1000, value=5, direction=0b0000))
            predictor.train(*make_outcome(pc=0x1000, value=9, direction=0b1111))
        a = predictor.predict(*make_probe(pc=0x1000, direction=0b0000))
        b = predictor.predict(*make_probe(pc=0x1000, direction=0b1111))
        assert a is not None and b is not None
        assert a == 5 and b == 9

    def test_tagged_tables_need_an_index_bit(self):
        with pytest.raises(ValueError, match="at least 2 tagged entries"):
            EVtagePredictor(tagged_entries=1)

    def test_storage_accounting(self):
        predictor = EVtagePredictor(base_entries=512, tagged_entries=64,
                                    num_tables=6)
        assert predictor.storage_bits() == 512 * 67 + 6 * 64 * 83


def _train(eves, **load) -> None:
    """One load through EVES' host protocol: predict, then train."""
    *fields, addr, size, value = make_outcome(**load)
    eves.validate_and_train(eves.predict(*fields), addr, size, value, 0)


class TestEvesAssembly:
    def test_estride_takes_priority(self):
        eves = EvesPredictor(EvesConfig())
        for i in range(300):
            _train(eves, pc=0x1000, value=10 + 5 * i)
        prediction = chosen_prediction(eves.predict(*make_probe(pc=0x1000)))
        assert prediction is not None
        assert prediction == 10 + 5 * 300  # stride, not last value

    def test_vtage_covers_context_values(self):
        eves = EvesPredictor(EvesConfig())
        for _ in range(400):
            _train(eves, pc=0x1000, value=5, direction=0b0000)
            _train(eves, pc=0x1000, value=9, direction=0b1111)
        a = chosen_prediction(
            eves.predict(*make_probe(pc=0x1000, direction=0b0000))
        )
        assert a == 5

    def test_prediction_labeled_eves(self):
        eves = EvesPredictor()
        for _ in range(300):
            _train(eves, pc=0x1000, value=3)
        decision = eves.predict(*make_probe(pc=0x1000))
        assert eves.slot_names[decision[CHOSEN]] == "eves"
        assert decision[CONFIDENT] == 1 << decision[CHOSEN]

    def test_no_prediction_is_an_empty_decision(self):
        decision = EvesPredictor().predict(*make_probe(pc=0x1000))
        assert decision[CHOSEN] < 0 and not decision[CONFIDENT]


class TestPresets:
    def test_budgets_are_ordered(self):
        small = eves_8kb().storage_bits()
        large = eves_32kb().storage_bits()
        infinite = eves_infinite().storage_bits()
        assert small < large < infinite

    def test_8kb_is_about_8kb(self):
        kib = eves_8kb().storage_kib()
        assert 6 < kib < 11

    def test_32kb_is_about_32kb(self):
        kib = eves_32kb().storage_kib()
        assert 24 < kib < 42
