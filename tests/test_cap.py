"""Tests for the context-aware address predictor (CAP / DLVP)."""

from conftest import make_outcome, make_probe

from repro.common.rng import DeterministicRng
from repro.predictors.cap import CapPredictor
from repro.predictors.types import PredictionKind


def _cap(entries=256, seed=0):
    return CapPredictor(entries, DeterministicRng(seed))


class TestContextAddresses:
    def test_cold_no_prediction(self):
        assert _cap().predict(make_probe()) is None

    def test_fast_warmup_four_observations(self):
        """CAP has the lowest confidence bar: ~4 observations."""
        cap = _cap()
        for _ in range(12):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000, load_path=0b1010))
        prediction = cap.predict(make_probe(pc=0x1000, load_path=0b1010))
        assert prediction is not None
        assert prediction.kind is PredictionKind.ADDRESS
        assert prediction.addr == 0x8000

    def test_path_separates_addresses(self):
        """Same PC, different memory paths, different addresses --
        the call-site disambiguation CAP exists for."""
        cap = _cap()
        for _ in range(12):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000, load_path=0b01))
            cap.train(*make_outcome(pc=0x1000, addr=0x9000, load_path=0b10))
        assert cap.predict(make_probe(pc=0x1000, load_path=0b01)).addr == 0x8000
        assert cap.predict(make_probe(pc=0x1000, load_path=0b10)).addr == 0x9000

    def test_changing_address_same_path_never_confident(self):
        """The paper's i >= 16 case: path constant, address varies."""
        cap = _cap()
        for i in range(100):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000 + 8 * i,
                                   load_path=0b11))
        assert cap.predict(make_probe(pc=0x1000, load_path=0b11)) is None

    def test_address_change_resets_confidence(self):
        cap = _cap()
        for _ in range(12):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000, load_path=0b11))
        cap.train(*make_outcome(pc=0x1000, addr=0x9000, load_path=0b11))
        assert cap.predict(make_probe(pc=0x1000, load_path=0b11)) is None

    def test_size_change_resets_confidence(self):
        cap = _cap()
        for _ in range(12):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000, size=8,
                                   load_path=0b11))
        cap.train(*make_outcome(pc=0x1000, addr=0x8000, size=4, load_path=0b11))
        assert cap.predict(make_probe(pc=0x1000, load_path=0b11)) is None


class TestFeedback:
    def test_penalize_resets(self):
        cap = _cap()
        for _ in range(12):
            cap.train(*make_outcome(pc=0x1000, addr=0x8000, load_path=0b11))
        cap.penalize(*make_outcome(pc=0x1000, addr=0x8000, load_path=0b11))
        assert cap.predict(make_probe(pc=0x1000, load_path=0b11)) is None


class TestAccounting:
    def test_storage_is_67_bits_per_entry(self):
        assert _cap(entries=1024).storage_bits() == 1024 * 67

    def test_context_aware_address_kind(self):
        cap = _cap()
        assert cap.context_aware
        assert cap.kind is PredictionKind.ADDRESS
