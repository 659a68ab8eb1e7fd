"""Tests for the stride address predictor (SAP)."""

from conftest import make_outcome, make_probe, train_strided

from repro.common.rng import DeterministicRng
from repro.predictors.sap import SapPredictor
from repro.predictors.types import PredictionKind


def _sap(entries=256, seed=0):
    return SapPredictor(entries, DeterministicRng(seed))


class TestStrideDetection:
    def test_cold_no_prediction(self):
        assert _sap().predict(make_probe()) is None

    def test_predicts_next_strided_address(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=8, times=40)
        prediction = sap.predict(make_probe(pc=0x1000))
        assert prediction is not None
        assert prediction.kind is PredictionKind.ADDRESS
        assert prediction.addr == 0x8000 + 40 * 8
        assert prediction.size == 8

    def test_zero_stride(self):
        """Constant-address loads are stride-0 SAP targets."""
        sap = _sap()
        for _ in range(40):
            sap.train(*make_outcome(pc=0x1000, addr=0x9000))
        prediction = sap.predict(make_probe(pc=0x1000))
        assert prediction is not None and prediction.addr == 0x9000

    def test_negative_stride(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x9000, stride=-16, times=40)
        prediction = sap.predict(make_probe(pc=0x1000))
        assert prediction.addr == 0x9000 - 40 * 16

    def test_warmup_is_about_nine_observations(self):
        """Table IV: effective confidence 9 consecutive observations."""
        sap = _sap(entries=4096, seed=11)
        warmups = []
        for k in range(60):
            pc = 0x20000 + 64 * k
            for i in range(1, 100):
                sap.train(*make_outcome(pc=pc, addr=0x8000 + i * 8))
                if sap.predict(make_probe(pc=pc)) is not None:
                    warmups.append(i)
                    break
        mean = sum(warmups) / len(warmups)
        assert 9 * 0.7 < mean < 9 * 1.4


class TestStrideBreaks:
    def test_stride_change_resets(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=8, times=40)
        sap.train(*make_outcome(pc=0x1000, addr=0x100))  # break
        assert sap.predict(make_probe(pc=0x1000)) is None

    def test_retrains_after_break(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=8, times=40)
        train_strided(sap, pc=0x1000, base=0x20000, stride=4, times=40)
        prediction = sap.predict(make_probe(pc=0x1000))
        assert prediction.addr == 0x20000 + 40 * 4

    def test_large_stride_compares_in_10_bit_domain(self):
        """Strides are stored as 10-bit two's complement; a consistent
        1024-byte stride wraps to 0 and the *prediction* uses the
        wrapped stride (hardware-faithful truncation)."""
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=1024, times=40)
        prediction = sap.predict(make_probe(pc=0x1000))
        assert prediction is not None
        # Last trained address was base + 39*1024; the wrapped stride of
        # 0 predicts it again (and the prediction will mispredict, which
        # is exactly what 10-bit stride hardware would do).
        assert prediction.addr == 0x8000 + 39 * 1024


class TestInflightCompensation:
    def test_advances_by_inflight_count(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=8, times=40)
        p0 = sap.predict(make_probe(pc=0x1000, inflight=0))
        p3 = sap.predict(make_probe(pc=0x1000, inflight=3))
        assert p3.addr == p0.addr + 3 * 8


class TestFeedbackHooks:
    def test_invalidate_removes_entry(self):
        sap = _sap()
        train_strided(sap, pc=0x1000, base=0x8000, stride=8, times=40)
        sap.invalidate(*make_outcome(pc=0x1000, addr=0x8000))
        assert sap.predict(make_probe(pc=0x1000)) is None

    def test_penalize_resets_confidence_keeps_entry(self):
        sap = _sap()
        for _ in range(40):
            sap.train(*make_outcome(pc=0x1000, addr=0x9000))
        sap.penalize(*make_outcome(pc=0x1000, addr=0x9000))
        assert sap.predict(make_probe(pc=0x1000)) is None
        # Entry survives: a few more confirmations re-enable prediction.
        for _ in range(40):
            sap.train(*make_outcome(pc=0x1000, addr=0x9000))
        assert sap.predict(make_probe(pc=0x1000)) is not None

    def test_penalize_unknown_pc_is_noop(self):
        _sap().penalize(*make_outcome(pc=0x7777000))


class TestAccounting:
    def test_storage_bits(self):
        assert _sap(entries=1024).storage_bits() == 1024 * 77

    def test_size_field(self):
        sap = _sap()
        for _ in range(40):
            sap.train(*make_outcome(pc=0x1000, addr=0x9000, size=4))
        assert sap.predict(make_probe(pc=0x1000)).size == 4
