"""Tests for the TAGE conditional branch predictor."""

import pytest

from repro.branch.history import HistorySet
from repro.branch.tage import TageConfig, TagePredictor
from repro.common.rng import DeterministicRng

from oracles.branch import tage_hashes


def _predict(predictor, pc, histories):
    return predictor.predict(
        pc, tage_hashes(predictor, pc, histories.direction, histories.path)
    )


def _run_pattern(predictor, pattern, repeats, train=True):
    """Feed a repeating taken/not-taken pattern; return accuracy."""
    histories = HistorySet()
    correct = 0
    total = 0
    pc = 0x4000
    for _ in range(repeats):
        for taken in pattern:
            ctx = _predict(predictor, pc, histories)
            if ctx.taken == taken:
                correct += 1
            total += 1
            if train:
                predictor.train(pc, taken, ctx)
            histories.push_branch(pc, taken)
    return correct / total


class TestConfig:
    def test_history_lengths_geometric_and_increasing(self):
        lengths = TageConfig().history_lengths()
        assert lengths[0] == 5
        assert lengths[-1] == 130
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_table(self):
        assert TageConfig(num_tables=1).history_lengths() == (5,)

    @pytest.mark.parametrize("field,value", [
        ("num_tables", 0),
        ("entries_per_table", 1000),
        ("entries_per_table", 1),
        ("base_entries", 3000),
        ("tag_bits", 1),  # the tag folds history to tag_bits - 1 bits
        ("tag_bits", 65),
        ("min_history", 0),
        ("max_history", 4),  # below min_history (5)
        ("counter_bits", 0),
        ("useful_bits", 0),
    ])
    def test_rejects_unbuildable_geometry(self, field, value):
        with pytest.raises(ValueError, match=field):
            TageConfig(**{field: value})

    def test_accepts_the_smallest_geometry(self):
        config = TageConfig(num_tables=1, entries_per_table=2,
                            base_entries=1, tag_bits=2, counter_bits=1,
                            useful_bits=1, min_history=1, max_history=1)
        assert config.history_lengths() == (1,)

    def test_storage_accounting(self):
        predictor = TagePredictor(TageConfig())
        bits = predictor.storage_bits()
        # ~32KB class predictor: between 3KB and 64KB.
        assert 3 * 8192 < bits < 64 * 8192


class TestLearning:
    def test_always_taken(self):
        predictor = TagePredictor(rng=DeterministicRng(0))
        accuracy = _run_pattern(predictor, [True], repeats=300)
        assert accuracy > 0.95

    def test_loop_exit_pattern(self):
        """T T T N repeated: needs history, beats bimodal's ~75%."""
        predictor = TagePredictor(rng=DeterministicRng(0))
        accuracy = _run_pattern(
            predictor, [True, True, True, False], repeats=400
        )
        assert accuracy > 0.90

    def test_long_period_pattern(self):
        predictor = TagePredictor(rng=DeterministicRng(0))
        pattern = [True] * 7 + [False]
        accuracy = _run_pattern(predictor, pattern, repeats=300)
        assert accuracy > 0.85

    def test_alternating(self):
        predictor = TagePredictor(rng=DeterministicRng(0))
        accuracy = _run_pattern(predictor, [True, False], repeats=400)
        assert accuracy > 0.9


class TestMechanics:
    def test_prediction_is_pure(self):
        """predict() must not mutate state."""
        predictor = TagePredictor(rng=DeterministicRng(0))
        histories = HistorySet()
        a = _predict(predictor, 0x1000, histories)
        b = _predict(predictor, 0x1000, histories)
        assert a == b

    def test_allocation_on_mispredict(self):
        predictor = TagePredictor(rng=DeterministicRng(0))
        histories = HistorySet()
        # Deliberately train the opposite of the base prediction so a
        # tagged entry is allocated.
        for _ in range(50):
            ctx = _predict(predictor, 0x2000, histories)
            predictor.train(0x2000, not ctx.taken, ctx)
            histories.push_branch(0x2000, not ctx.taken)
        allocated = sum(1 for tags in predictor._tags for tag in tags if tag)
        assert allocated > 0
