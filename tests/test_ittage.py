"""Tests for the ITTAGE indirect-target predictor."""

import pytest

from repro.branch.history import HistorySet
from repro.branch.ittage import IttageConfig, IttagePredictor
from repro.common.rng import DeterministicRng

from oracles.branch import ittage_hashes


def _predict(predictor, pc, histories):
    return predictor.predict(
        pc, ittage_hashes(predictor, pc, histories.direction, histories.path)
    )


class TestConfig:
    def test_history_lengths_increasing(self):
        lengths = IttageConfig().history_lengths()
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("field,value", [
        ("num_tables", 0),
        ("entries_per_table", 500),
        ("base_entries", 0),
        ("tag_bits", 0),  # would hang the tag fold
        ("tag_bits", 65),
        ("min_history", 0),
        ("max_history", 3),  # below min_history (4)
    ])
    def test_rejects_unbuildable_geometry(self, field, value):
        with pytest.raises(ValueError, match=field):
            IttageConfig(**{field: value})

    def test_accepts_one_bit_tags(self):
        assert IttageConfig(tag_bits=1).tag_bits == 1

    def test_storage_positive(self):
        assert IttagePredictor().storage_bits() > 0


class TestLearning:
    def test_monomorphic_target(self):
        predictor = IttagePredictor(rng=DeterministicRng(0))
        histories = HistorySet()
        pc, target = 0x3000, 0x7000
        for _ in range(10):
            ctx = _predict(predictor, pc, histories)
            predictor.train(pc, target, ctx)
        assert _predict(predictor, pc, histories).target == target

    def test_history_correlated_targets(self):
        """Target alternates with the preceding branch direction; with
        history the predictor should converge to high accuracy."""
        predictor = IttagePredictor(rng=DeterministicRng(0))
        histories = HistorySet()
        pc = 0x3000
        correct = 0
        total = 0
        for i in range(600):
            direction = (i % 2) == 0
            histories.push_branch(0x2000, direction)
            target = 0x7000 if direction else 0x8000
            ctx = _predict(predictor, pc, histories)
            if i > 300:
                total += 1
                correct += ctx.target == target
            predictor.train(pc, target, ctx)
        assert correct / total > 0.85

    def test_prediction_is_pure(self):
        predictor = IttagePredictor(rng=DeterministicRng(0))
        histories = HistorySet()
        assert _predict(predictor, 0x10, histories) == _predict(
            predictor, 0x10, histories
        )
