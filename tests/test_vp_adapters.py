"""Tests for the predictor hosts: NoPredictor, a lone component (the
one-component plain composite a ``component`` spec builds) and EVES."""

from conftest import alone, chosen_prediction, make_outcome, make_probe

from repro.eves import eves_8kb
from repro.pipeline.vp import NoPredictor, ValuePredictorHost
from repro.predictors.types import CHOSEN, CONFIDENT


class TestNoPredictor:
    def test_never_predicts(self):
        host = NoPredictor()
        decision = host.predict(*make_probe())
        assert decision[CHOSEN] < 0 and not decision[CONFIDENT]
        assert host.storage_bits() == 0

    def test_satisfies_protocol(self):
        assert isinstance(NoPredictor(), ValuePredictorHost)


class TestLoneComponent:
    def test_decision_shape(self):
        host = alone("lvp", 256)
        for _ in range(200):
            host.components["lvp"].train(*make_outcome(pc=0x1000, value=9))
        decision = host.predict(*make_probe(pc=0x1000))
        assert host.slot_names == ("lvp",)
        assert decision[CHOSEN] == 0 and decision[CONFIDENT] == 1
        assert chosen_prediction(decision) == 9

    def test_stats_track_usage(self):
        host = alone("lvp", 256)
        for _ in range(200):
            decision = host.predict(*make_probe(pc=0x1000))
            host.validate_and_train(
                decision, 0x8000, 8, 9, decision[CONFIDENT]
            )
        assert host.stats.loads == 200
        assert 0 < host.stats.predicted_loads < 200
        assert host.stats.accuracy == 1.0

    def test_wrong_prediction_penalizes(self):
        host = alone("cap", 256)
        for _ in range(20):
            decision = host.predict(*make_probe(pc=0x1000, load_path=3))
            host.validate_and_train(
                decision, 0x8000, 8, 42, decision[CONFIDENT]
            )
        decision = host.predict(*make_probe(pc=0x1000, load_path=3))
        assert decision[CHOSEN] >= 0
        host.validate_and_train(decision, 0x8000, 8, 42, 0)
        assert host.predict(*make_probe(pc=0x1000, load_path=3))[CHOSEN] < 0

    def test_satisfies_protocol(self):
        host = alone("sap", 64)
        assert isinstance(host, ValuePredictorHost)


class TestEves:
    def test_decision_and_training(self):
        eves = eves_8kb()
        for _ in range(300):
            decision = eves.predict(*make_probe(pc=0x1000))
            eves.validate_and_train(
                decision, 0x8000, 8, 5, decision[CONFIDENT]
            )
        decision = eves.predict(*make_probe(pc=0x1000))
        assert eves.slot_names == ("eves",)
        assert decision[CHOSEN] == 0 and decision[CONFIDENT] == 1
        assert chosen_prediction(decision) == 5
        assert eves.storage_bits() == (
            eves.estride.storage_bits() + eves.evtage.storage_bits()
        )

    def test_satisfies_protocol(self):
        assert isinstance(eves_8kb(), ValuePredictorHost)
