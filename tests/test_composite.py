"""Tests for the composite predictor (selection, stats, training policy)."""

import pytest
from conftest import make_probe

from repro.composite.composite import (
    SELECTION_ORDER,
    TRAINING_ORDER,
    CompositePredictor,
)
from repro.composite.config import CompositeConfig


def _config(**overrides):
    base = CompositeConfig(epoch_instructions=1000).homogeneous(256).plain()
    from dataclasses import replace

    return replace(base, **overrides) if overrides else base


def _correctness(decision, value=None, addr=None):
    """All-confident-correct verdicts for simple scenarios."""
    return {name: True for name in decision.confident}


class TestOrders:
    def test_selection_prefers_value_then_context(self):
        assert SELECTION_ORDER == ("cvp", "lvp", "cap", "sap")

    def test_training_prefers_value_then_agnostic(self):
        assert TRAINING_ORDER == ("lvp", "cvp", "sap", "cap")


class TestConstruction:
    def test_zero_entry_component_omitted(self):
        composite = CompositePredictor(_config().with_entries(0, 256, 256, 256))
        assert "lvp" not in composite.components
        assert set(composite.components) == {"sap", "cvp", "cap"}

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            CompositePredictor(_config().with_entries(0, 0, 0, 0))

    def test_fusion_requires_homogeneous(self):
        config = _config(table_fusion=True).with_entries(64, 256, 256, 256)
        with pytest.raises(ValueError, match="homogeneous"):
            CompositePredictor(config)

    def test_storage_sums_components(self):
        composite = CompositePredictor(_config())
        expected = sum(c.storage_bits() for c in composite.components.values())
        assert composite.storage_bits() == expected  # null AM adds 0


class TestSelection:
    def _warm(self, composite, times=300):
        """Constant value at constant address: all four become confident."""
        probe = make_probe(pc=0x1000, direction=0b101, load_path=0b11)
        for _ in range(times):
            decision = composite.predict(probe)
            composite.validate_and_train(
                decision, 0x8000, 8, 7, _correctness(decision)
            )
        return probe

    def test_chooses_highest_priority_confident(self):
        composite = CompositePredictor(_config())
        probe = self._warm(composite)
        decision = composite.predict(probe)
        confident_ranked = [
            n for n in SELECTION_ORDER if n in decision.confident
        ]
        assert decision.chosen.component == confident_ranked[0]

    def test_overlap_statistics(self):
        composite = CompositePredictor(_config())
        self._warm(composite)
        stats = composite.stats
        assert stats.loads > 0
        assert sum(stats.confident_histogram) == stats.loads
        assert stats.predicted_loads <= stats.loads

    def test_validation_requires_all_verdicts(self):
        composite = CompositePredictor(_config())
        probe = self._warm(composite)
        decision = composite.predict(probe)
        assert decision.confident
        with pytest.raises(ValueError, match="missing"):
            composite.validate_and_train(decision, 0x8000, 8, 42, {})


class TestTrainingPolicies:
    def test_train_all_trains_every_component(self):
        composite = CompositePredictor(_config(smart_training=False))
        decision = composite.predict(make_probe(pc=0x1000))
        composite.validate_and_train(decision, 0x8000, 8, 42, {})
        assert composite.stats.train_operations == len(composite.components)

    def test_smart_training_trains_all_when_no_prediction(self):
        composite = CompositePredictor(_config(smart_training=True))
        decision = composite.predict(make_probe(pc=0x1000))
        assert not decision.confident
        composite.validate_and_train(decision, 0x8000, 8, 42, {})
        assert composite.stats.train_operations == len(composite.components)

    def test_smart_training_reduces_training_ops(self):
        smart = CompositePredictor(_config(smart_training=True))
        dumb = CompositePredictor(_config(smart_training=False))
        probe = make_probe(pc=0x1000, direction=0b101, load_path=0b11)
        for composite in (smart, dumb):
            for _ in range(400):
                decision = composite.predict(probe)
                composite.validate_and_train(
                    decision, 0x8000, 8, 7, _correctness(decision)
                )
        assert smart.stats.avg_predictors_trained < \
            dumb.stats.avg_predictors_trained

    def test_smart_training_invalidates_unchosen_correct_sap(self):
        """Once a cheaper correct predictor exists, a correct-but-
        untrained SAP entry is dropped (its stride would break anyway).

        Warm LVP and SAP directly (smart training would otherwise stop
        the slower one from ever becoming confident -- the policy's
        whole point), then check one smart-training validation.
        """
        composite = CompositePredictor(_config(smart_training=True))
        probe = make_probe(pc=0x1000)
        for _ in range(300):
            composite.components["lvp"].train(probe, 0x8000, 8, 7)
            composite.components["sap"].train(probe, 0x8000, 8, 7)
        decision = composite.predict(probe)
        assert {"lvp", "sap"} <= set(decision.confident)
        composite.validate_and_train(
            decision, 0x8000, 8, 7, _correctness(decision)
        )
        assert composite.components["sap"].predict(probe) is None
        assert composite.components["lvp"].predict(probe) is not None

    def test_smart_training_only_trains_cheapest_when_multiple_correct(self):
        composite = CompositePredictor(_config(smart_training=True))
        probe = make_probe(pc=0x1000)
        for _ in range(300):
            composite.components["lvp"].train(probe, 0x8000, 8, 7)
            composite.components["sap"].train(probe, 0x8000, 8, 7)
        decision = composite.predict(probe)
        before = composite.stats.train_operations
        composite.validate_and_train(
            decision, 0x8000, 8, 7, _correctness(decision)
        )
        assert composite.stats.train_operations - before == 1  # LVP only

    def test_wrong_components_are_penalized(self):
        composite = CompositePredictor(_config(smart_training=True))
        probe = make_probe(pc=0x1000, load_path=0b11)
        # Warm SAP/CAP on the address.
        for _ in range(60):
            decision = composite.predict(probe)
            composite.validate_and_train(
                decision, 0x8000, 8, 7, _correctness(decision)
            )
        decision = composite.predict(probe)
        assert decision.confident
        verdicts = {name: False for name in decision.confident}
        composite.validate_and_train(decision, 0x8000, 8, 7, verdicts)
        after = composite.predict(probe)
        # Everyone who was wrong lost confidence.
        assert not set(verdicts) & set(after.confident)


class TestEpochs:
    def test_tick_fires_epoch_boundaries(self):
        composite = CompositePredictor(_config(accuracy_monitor="m-am"))
        fired = []
        original = composite.monitor.end_epoch
        composite.monitor.end_epoch = lambda: fired.append(1) or original()
        composite.tick_instructions(2500)
        assert len(fired) == 2
