"""Tests for deterministic RNG streams."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import CoinStream, DeterministicRng


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_diverge(self):
        a = DeterministicRng(42, "x")
        b = DeterministicRng(42, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_derive_is_deterministic(self):
        a = DeterministicRng(1).derive("child")
        b = DeterministicRng(1).derive("child")
        assert a.random() == b.random()

    def test_derive_independent_of_parent_consumption(self):
        parent_a = DeterministicRng(1)
        parent_b = DeterministicRng(1)
        parent_a.random()  # consume from one parent only
        assert parent_a.derive("c").random() == parent_b.derive("c").random()


class TestCoin:
    def test_degenerate_probabilities(self):
        rng = DeterministicRng(0)
        assert rng.coin(1.0) is True
        assert rng.coin(0.0) is False
        assert rng.coin(1.5) is True
        assert rng.coin(-0.5) is False

    def test_bias_statistics(self):
        rng = DeterministicRng(3)
        hits = sum(rng.coin(0.25) for _ in range(4000))
        assert 800 < hits < 1200


#: Probabilities a coin may be asked for: the FPC vectors' own, plus
#: the degenerate ones that must consume no double.
_PROBABILITIES = st.one_of(
    st.sampled_from((0.5, 0.25, 0.125, 0.0625, 1.0, 0.0)),
    st.floats(-0.5, 1.5, allow_nan=False),
)


class TestCoinStream:
    """A block-drawn coin stream answers exactly what scalar draws on
    the same stream would."""

    def test_ten_thousand_draws_across_block_boundaries(self):
        blocked = DeterministicRng(11).coins("lvp")
        scalar = DeterministicRng(11).derive("lvp")
        for i in range(10_000):
            p = (0.5, 0.25, 0.125)[i % 3]
            assert blocked.coin(p) == scalar.coin(p), i
        assert blocked.drawn == 10_000

    @given(seed=st.integers(0, 2**32 - 1),
           probabilities=st.lists(_PROBABILITIES, max_size=600))
    def test_matches_scalar_draws(self, seed, probabilities):
        blocked = DeterministicRng(seed).coins("cvp")
        scalar = DeterministicRng(seed).derive("cvp")
        assert isinstance(blocked, CoinStream)
        assert ([blocked.coin(p) for p in probabilities]
                == [scalar.coin(p) for p in probabilities])
        # Both streams stand at the same double.
        assert blocked.coin(0.5) == scalar.coin(0.5)

    @given(seed=st.integers(0, 2**32 - 1),
           draws=st.integers(0, 300),
           p=st.one_of(st.floats(max_value=0.0, allow_nan=False),
                       st.floats(min_value=1.0, allow_nan=False)))
    def test_degenerate_probabilities_consume_no_draw(self, seed, draws, p):
        stream = DeterministicRng(seed).coins("sap")
        for _ in range(draws):
            stream.coin(0.5)
        assert stream.coin(p) is (p >= 1.0)
        assert stream.drawn == draws
        reference = DeterministicRng(seed).coins("sap")
        for _ in range(draws):
            reference.coin(0.5)
        assert [stream.coin(0.25) for _ in range(40)] == [
            reference.coin(0.25) for _ in range(40)
        ]

    @given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 200))
    def test_pickled_mid_block_resumes_identically(self, seed, before):
        stream = DeterministicRng(seed).coins("cap")
        for _ in range(before):
            stream.coin(0.5)
        copy = pickle.loads(pickle.dumps(stream))
        assert copy.drawn == stream.drawn == before
        assert [copy.coin(0.125) for _ in range(300)] == [
            stream.coin(0.125) for _ in range(300)
        ]


class TestHelpers:
    def test_randint_range(self):
        rng = DeterministicRng(5)
        values = {rng.randint(3, 7) for _ in range(200)}
        assert values == {3, 4, 5, 6}

    def test_choice(self):
        rng = DeterministicRng(6)
        assert rng.choice([9]) == 9
        assert rng.choice(["a", "b"]) in ("a", "b")

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    def test_shuffled_preserves_elements(self):
        rng = DeterministicRng(7)
        items = list(range(20))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # input untouched

    def test_geometric_positive(self):
        rng = DeterministicRng(8)
        assert all(rng.geometric(0.5) >= 1 for _ in range(100))
