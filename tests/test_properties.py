"""Cross-cutting property-based tests over the predictor stack.

These exercise invariants every predictor must uphold regardless of the
training stream: prediction purity, bounded confidence, tag discipline,
and composite bookkeeping consistency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_outcome, make_probe

from repro.common.rng import DeterministicRng
from repro.composite import CompositeConfig, CompositePredictor
from repro.predictors import COMPONENT_NAMES, make_component
from repro.predictors.types import PredictionKind

# A small universe of training events keeps table interactions dense.
outcome_strategy = st.tuples(
    st.sampled_from([0x1000, 0x1040, 0x2000]),          # pc
    st.sampled_from([0x8000, 0x8008, 0x9000]),          # addr
    st.sampled_from([1, 7, 42]),                        # value
    st.sampled_from([0, 0b1011, 0b11111]),              # direction history
    st.sampled_from([0, 0b10, 0b1101]),                 # load path
)


def _train_stream(predictor, events):
    for pc, addr, value, direction, load_path in events:
        predictor.train(*make_outcome(
            pc=pc, addr=addr, value=value, direction=direction,
            load_path=load_path,
        ))


class TestComponentInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(COMPONENT_NAMES),
           st.lists(outcome_strategy, max_size=120))
    def test_predict_is_pure(self, name, events):
        """predict() never mutates state: repeated probes agree."""
        predictor = make_component(name, 64, DeterministicRng(1))
        _train_stream(predictor, events)
        probe = make_probe(pc=0x1000, direction=0b1011, load_path=0b10)
        assert predictor.predict(probe) == predictor.predict(probe)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(COMPONENT_NAMES),
           st.lists(outcome_strategy, max_size=120))
    def test_prediction_kind_matches_class(self, name, events):
        predictor = make_component(name, 64, DeterministicRng(2))
        _train_stream(predictor, events)
        for pc, _, _, direction, load_path in events[:20]:
            prediction = predictor.predict(make_probe(
                pc=pc, direction=direction, load_path=load_path,
            ))
            if prediction is not None:
                assert prediction.kind is predictor.kind
                assert prediction.component == predictor.name

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(COMPONENT_NAMES),
           st.lists(outcome_strategy, max_size=120))
    def test_confidence_bounded(self, name, events):
        predictor = make_component(name, 64, DeterministicRng(3))
        _train_stream(predictor, events)
        for table in predictor._tables():
            for row in table.rows():
                assert 0 <= row[-1] <= predictor.fpc_vector.maximum

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(COMPONENT_NAMES),
           st.lists(outcome_strategy, max_size=80))
    def test_flush_silences(self, name, events):
        predictor = make_component(name, 64, DeterministicRng(4))
        _train_stream(predictor, events)
        predictor.flush()
        for pc, _, _, direction, load_path in events:
            assert predictor.predict(make_probe(
                pc=pc, direction=direction, load_path=load_path,
            )) is None

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(COMPONENT_NAMES),
           st.lists(outcome_strategy, max_size=80),
           st.integers(min_value=1, max_value=3))
    def test_fusion_banks_roundtrip(self, name, events, banks):
        """Granting and revoking banks preserves the original bank's
        confident predictions."""
        predictor = make_component(name, 64, DeterministicRng(5))
        _train_stream(predictor, events)
        probe = make_probe(pc=0x1000, direction=0b1011, load_path=0b10)
        before = predictor.predict(probe)
        predictor.grant_extra_banks(banks)
        predictor.revoke_extra_banks()
        assert predictor.predict(probe) == before


class TestCompositeInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(outcome_strategy, min_size=10, max_size=150))
    def test_stats_conservation(self, events):
        composite = CompositePredictor(
            CompositeConfig(epoch_instructions=1000).homogeneous(64).plain()
        )
        for pc, addr, value, direction, load_path in events:
            probe = make_probe(pc=pc, direction=direction,
                               load_path=load_path)
            decision = composite.predict(probe)
            correctness = {}
            for name, prediction in decision.confident.items():
                if prediction.kind is PredictionKind.VALUE:
                    correctness[name] = prediction.value == value
                else:
                    correctness[name] = prediction.addr == addr
            composite.validate_and_train(
                decision, addr, 8, value, correctness
            )
        stats = composite.stats
        assert stats.loads == len(events)
        assert sum(stats.confident_histogram) == stats.loads
        assert stats.predicted_loads == sum(stats.chosen_by.values())
        assert stats.correct_used + stats.incorrect_used == \
            stats.predicted_loads
        for name in COMPONENT_NAMES:
            assert stats.correct_by[name] + stats.incorrect_by[name] == \
                stats.confident_by[name]
