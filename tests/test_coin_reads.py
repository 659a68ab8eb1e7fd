"""The FPC draw the hot loops read in place, pinned to ``CoinStream.coin``.

The composite's bound step (:mod:`repro.composite.step`) and the
functional backend bind each component's coin block and refill once
and draw ``(block.pop() if block else refill()) < p``.  That is
``coin(p)`` for ``0 < p < 1`` only while the block stays one list
across refills, and a serve session checkpointed with doubles still
in a block must continue through the step exactly as it would have.
"""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.composite.step import step_unsupported_reason
from repro.serve.loadgen import trace_to_events
from repro.serve.session import PredictorSession
from repro.workloads.generator import generate_trace

#: Probabilities in (0, 1), the FPC vectors' own, at and past both
#: ends, and anything in between.
_PROBABILITIES = st.one_of(
    st.sampled_from((0.5, 0.25, 0.125, 0.0625, 1.0, 0.0, -1.0, 2.0)),
    st.floats(-0.5, 1.5, allow_nan=False),
)


def _inline_draw(block, refill, p):
    """The hot loops' draw.  Their probabilities lie in (0, 1] (an FPC
    vector rejects 0), so a ``p <= 0`` never reaches the expression and
    draws nothing."""
    if p <= 0.0:
        return False
    return p >= 1.0 or (block.pop() if block else refill()) < p


class TestInlineDraw:
    @given(seed=st.integers(0, 2**32 - 1),
           probabilities=st.lists(_PROBABILITIES, max_size=700))
    def test_matches_coin_across_refills(self, seed, probabilities):
        inline = DeterministicRng(seed).coins("lvp")
        reference = DeterministicRng(seed).coins("lvp")
        block = inline._block
        refill = inline._refill
        refills = 0
        for p in probabilities:
            fetched = inline._fetched
            assert _inline_draw(block, refill, p) == reference.coin(p)
            refills += inline._fetched != fetched
            assert inline._block is block
            assert inline.drawn == reference.drawn
        assert inline._block == reference._block
        # Both streams stand at the same double.
        assert _inline_draw(block, refill, 0.5) == reference.coin(0.5)
        assert (refills > 0) == any(0 < p < 1 for p in probabilities)

    def test_block_sizes_grow_from_16_to_256(self):
        stream = DeterministicRng(3).coins("cvp")
        block = stream._block
        sizes = []
        for _ in range(1500):
            fetched = stream._fetched
            _inline_draw(block, stream._refill, 0.5)
            if stream._fetched != fetched:
                sizes.append(stream._fetched - fetched)
        assert sizes[:6] == [16, 16, 32, 64, 128, 256]
        assert set(sizes[5:]) == {256}
        assert stream._block is block


class TestCheckpointMidBlock:
    SPEC = {"kind": "composite", "entries": 64,
            "config": {"epoch_instructions": 97, "confidence_delta": -2}}

    def test_restored_session_continues_through_the_bound_step(self):
        trace = generate_trace("coremark", 3000, 0)
        events = trace_to_events(trace)
        session = PredictorSession(self.SPEC,
                                   initial_memory=trace.initial_memory)
        assert step_unsupported_reason(session.predictor) is None
        # Apply until some component's stream holds unhanded doubles.
        split = 0
        while not any(
            component._rng._block
            for component in session.predictor.components.values()
        ):
            session.apply_batch(events[split:split + 32])
            split += 32
        assert split < len(events)
        blob = pickle.dumps(session.capture_state())
        restored = PredictorSession.restore(
            "restored", pickle.loads(blob), session.counters()
        )
        streams = {
            name: component._rng
            for name, component in restored.predictor.components.items()
        }
        blocks = {name: stream._block for name, stream in streams.items()}
        assert any(blocks.values())

        rest = events[split:]
        assert restored.apply_batch(rest) == session.apply_batch(rest)
        # The restored predictor ran the bound step, on the blocks it
        # was restored with.
        predictor = restored.predictor
        assert predictor._predict_step is not type(predictor)._predict_methods
        for name, component in predictor.components.items():
            stream = component._rng
            assert stream is streams[name] and stream._block is blocks[name]
            original = session.predictor.components[name]._rng
            assert stream.drawn == original.drawn
            assert stream._block == original._block
        assert session.predictor.stats == predictor.stats
        assert (restored.loads, restored.predicted_loads,
                restored.correct_predictions) == (
            session.loads, session.predicted_loads,
            session.correct_predictions,
        )
