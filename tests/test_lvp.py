"""Tests for the last value predictor (LVP)."""

from conftest import make_outcome, make_probe, train_constant

from repro.common.rng import DeterministicRng
from repro.predictors.lvp import LvpPredictor
from repro.predictors.types import PredictionKind


def _lvp(entries=256, seed=0):
    return LvpPredictor(entries, DeterministicRng(seed))


class TestWarmup:
    def test_no_prediction_cold(self):
        assert _lvp().predict(make_probe()) is None

    def test_predicts_after_effective_confidence(self):
        """High confidence takes ~64 observations (Table IV)."""
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=7, times=200)
        prediction = lvp.predict(make_probe(pc=0x1000))
        assert prediction is not None
        assert prediction.kind is PredictionKind.VALUE
        assert prediction.value == 7

    def test_does_not_predict_too_early(self):
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=7, times=5)
        assert lvp.predict(make_probe(pc=0x1000)) is None

    def test_warmup_time_statistics(self):
        """Mean observations-to-confidence across PCs ~ 64."""
        lvp = _lvp(entries=4096, seed=3)
        warmups = []
        for k in range(60):
            pc = 0x10000 + 64 * k
            for i in range(1, 400):
                lvp.train(*make_outcome(pc=pc, value=9))
                if lvp.predict(make_probe(pc=pc)) is not None:
                    warmups.append(i)
                    break
        mean = sum(warmups) / len(warmups)
        assert 64 * 0.7 < mean < 64 * 1.3


class TestValueChanges:
    def test_value_change_resets_confidence(self):
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=7, times=300)
        lvp.train(*make_outcome(pc=0x1000, value=8))
        assert lvp.predict(make_probe(pc=0x1000)) is None

    def test_new_value_learned_after_reset(self):
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=7, times=300)
        train_constant(lvp, pc=0x1000, value=8, times=300)
        prediction = lvp.predict(make_probe(pc=0x1000))
        assert prediction is not None and prediction.value == 8

    def test_alternating_values_never_confident(self):
        lvp = _lvp()
        for i in range(300):
            lvp.train(*make_outcome(pc=0x1000, value=i % 2))
        assert lvp.predict(make_probe(pc=0x1000)) is None


class TestAliasing:
    def test_conflicting_pcs_evict(self):
        """Two PCs mapping to the same index fight for one entry."""
        lvp = _lvp(entries=1)
        train_constant(lvp, pc=0x1000, value=7, times=300)
        train_constant(lvp, pc=0x2000, value=9, times=300)
        assert lvp.predict(make_probe(pc=0x1000)) is None

    def test_distinct_pcs_coexist_in_big_table(self):
        lvp = _lvp(entries=1024)
        train_constant(lvp, pc=0x1000, value=7, times=300)
        train_constant(lvp, pc=0x2000, value=9, times=300)
        assert lvp.predict(make_probe(pc=0x1000)).value == 7
        assert lvp.predict(make_probe(pc=0x2000)).value == 9


class TestAccounting:
    def test_storage_bits(self):
        assert _lvp(entries=1024).storage_bits() == 1024 * 81

    def test_context_flags(self):
        lvp = _lvp()
        assert lvp.kind is PredictionKind.VALUE
        assert not lvp.context_aware

    def test_flush_clears(self):
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=7, times=300)
        lvp.flush()
        assert lvp.predict(make_probe(pc=0x1000)) is None

    def test_value_masked_to_64_bits(self):
        lvp = _lvp()
        train_constant(lvp, pc=0x1000, value=(1 << 70) | 5, times=300)
        assert lvp.predict(make_probe(pc=0x1000)).value == 5
