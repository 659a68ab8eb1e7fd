"""Tests for the predictor hosts: NoPredictor, a lone component (the
one-component plain composite a ``component`` spec builds) and EVES."""

from conftest import alone, make_outcome, make_probe

from repro.composite.composite import CompositeDecision
from repro.eves import eves_8kb
from repro.pipeline.vp import NoPredictor, ValuePredictorHost


class TestNoPredictor:
    def test_never_predicts(self):
        host = NoPredictor()
        decision = host.predict(make_probe())
        assert decision.chosen is None and not decision.confident
        assert host.storage_bits() == 0

    def test_satisfies_protocol(self):
        assert isinstance(NoPredictor(), ValuePredictorHost)


class TestLoneComponent:
    def test_decision_shape(self):
        host = alone("lvp", 256)
        for _ in range(200):
            host.components["lvp"].train(*make_outcome(pc=0x1000, value=9))
        decision = host.predict(make_probe(pc=0x1000))
        assert isinstance(decision, CompositeDecision)
        assert decision.chosen is not None
        assert set(decision.confident) == {"lvp"}

    def test_stats_track_usage(self):
        host = alone("lvp", 256)
        for _ in range(200):
            decision = host.predict(make_probe(pc=0x1000))
            correctness = {n: True for n in decision.confident}
            host.validate_and_train(decision, 0x8000, 8, 9, correctness)
        assert host.stats.loads == 200
        assert 0 < host.stats.predicted_loads < 200
        assert host.stats.accuracy == 1.0

    def test_wrong_prediction_penalizes(self):
        host = alone("cap", 256)
        for _ in range(20):
            decision = host.predict(make_probe(pc=0x1000, load_path=3))
            host.validate_and_train(
                decision, 0x8000, 8, 42, {n: True for n in decision.confident}
            )
        decision = host.predict(make_probe(pc=0x1000, load_path=3))
        assert decision.chosen is not None
        host.validate_and_train(decision, 0x8000, 8, 42, {"cap": False})
        assert host.predict(make_probe(pc=0x1000, load_path=3)).chosen is None

    def test_satisfies_protocol(self):
        host = alone("sap", 64)
        assert isinstance(host, ValuePredictorHost)


class TestEves:
    def test_decision_and_training(self):
        eves = eves_8kb()
        for _ in range(300):
            decision = eves.predict(make_probe(pc=0x1000))
            eves.validate_and_train(
                decision, 0x8000, 8, 5, {n: True for n in decision.confident}
            )
        decision = eves.predict(make_probe(pc=0x1000))
        assert decision.chosen is not None
        assert decision.chosen.component == "eves"
        assert decision.confident == {"eves": decision.chosen}
        assert eves.storage_bits() == (
            eves.estride.storage_bits() + eves.evtage.storage_bits()
        )

    def test_satisfies_protocol(self):
        assert isinstance(eves_8kb(), ValuePredictorHost)
