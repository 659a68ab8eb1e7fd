"""Unit and property tests for repro.common.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bits import (
    bit_length_for,
    fold_bits,
    fold_bits_np,
    mask,
    sign_extend,
    truncate,
)


class TestMask:
    def test_small_masks(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(64) == (1 << 64) - 1

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=128))
    def test_mask_bit_count(self, width):
        assert bin(mask(width)).count("1") == width


class TestTruncate:
    def test_truncates_high_bits(self):
        assert truncate(0x1FF, 8) == 0xFF

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=64))
    def test_result_fits_width(self, value, width):
        assert 0 <= truncate(value, width) < (1 << width)

    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=33, max_value=64))
    def test_identity_when_value_fits(self, value, width):
        assert truncate(value, width) == value


class TestSignExtend:
    def test_negative_one(self):
        assert sign_extend(0b1111111111, 10) == -1

    def test_min_value(self):
        assert sign_extend(1 << 9, 10) == -512

    def test_positive_passthrough(self):
        assert sign_extend(5, 10) == 5

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            sign_extend(1, 0)

    @given(st.integers(min_value=-512, max_value=511))
    def test_roundtrip_through_truncate(self, value):
        assert sign_extend(truncate(value, 10), 10) == value

    @given(st.integers(), st.integers(min_value=1, max_value=64))
    def test_range(self, value, width):
        result = sign_extend(value, width)
        assert -(1 << (width - 1)) <= result < (1 << (width - 1))


class TestFoldBits:
    def test_folds_to_width(self):
        assert fold_bits(0b1010_0101, 4) == 0b1111

    def test_zero(self):
        assert fold_bits(0, 8) == 0

    def test_identity_for_small_values(self):
        assert fold_bits(0b101, 8) == 0b101

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            fold_bits(5, 0)

    def test_rejects_negative_value(self):
        # A negative history would silently fold wrong (Python's >> on
        # negatives never reaches 0), so it must fail loudly instead.
        with pytest.raises(ValueError, match="non-negative"):
            fold_bits(-1, 8)
        with pytest.raises(ValueError, match="-37"):
            fold_bits(-37, 4)

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=32))
    def test_result_in_range(self, value, width):
        assert 0 <= fold_bits(value, width) < (1 << width)

    @given(st.integers(min_value=0, max_value=2**128),
           st.integers(min_value=1, max_value=32))
    def test_preserves_any_single_bit_flip(self, value, width):
        # Folding is XOR-based: flipping one input bit flips exactly one
        # output bit, so the folded values always differ.
        flipped = value ^ (1 << 5)
        assert fold_bits(value, width) != fold_bits(flipped, width)



class TestFoldBitsNp:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20),
           st.integers(min_value=1, max_value=70))
    def test_matches_fold_bits(self, values, width):
        folded = fold_bits_np(np.array(values, dtype=np.uint64), width)
        assert folded.tolist() == [fold_bits(v, width) for v in values]

    @pytest.mark.parametrize("width", [0, -3])
    def test_rejects_nonpositive_width(self, width):
        with pytest.raises(ValueError):
            fold_bits_np(np.ones(4, dtype=np.uint64), width)


class TestBitLengthFor:
    @pytest.mark.parametrize("entries,expected", [
        (1, 0), (2, 1), (64, 6), (1024, 10), (4096, 12),
    ])
    def test_powers_of_two(self, entries, expected):
        assert bit_length_for(entries) == expected

    @pytest.mark.parametrize("bad", [0, -4, 3, 100, 1000])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            bit_length_for(bad)
