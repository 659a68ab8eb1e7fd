"""Tests for predictor hashing helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.hashing import (
    mix64,
    path_hash,
    pc_index,
    pc_tag,
    stable_digest,
)


class TestMix64:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_in_range(self, value):
        assert 0 <= mix64(value) < 2**64

    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_scrambles(self):
        assert mix64(1) != 1


class TestPcIndex:
    @given(st.integers(min_value=0, max_value=2**48),
           st.integers(min_value=1, max_value=16))
    def test_range(self, pc, bits):
        assert 0 <= pc_index(pc, bits) < (1 << bits)

    def test_distributes_consecutive_pcs(self):
        indices = {pc_index(0x1000 + 4 * i, 8) for i in range(64)}
        assert len(indices) >= 48  # near-unique for small footprints

    def test_history_changes_index(self):
        assert pc_index(0x1000, 10, history=0b10110) != pc_index(0x1000, 10)

    def test_zero_bits_degenerate_table(self):
        assert pc_index(0x1234 & ~3, 0) == 0

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            pc_index(0x1000, -1)

    def test_round_pcs_do_not_collide(self):
        """Regression: PCs at multiples of 0x1000 collapsed to index 0
        when the index hash folded its own shifted terms away."""
        indices = {pc_index(k * 0x1000, 10) for k in range(1, 9)}
        assert len(indices) > 4


class TestPcTag:
    @given(st.integers(min_value=0, max_value=2**48),
           st.integers(min_value=4, max_value=16))
    def test_range(self, pc, bits):
        assert 0 <= pc_tag(pc, bits) < (1 << bits)

    def test_tag_differs_from_index_aliases(self):
        """PCs that alias in the index should mostly differ in tag."""
        bits = 6
        by_index: dict[int, list[int]] = {}
        for i in range(512):
            pc = 0x40_0000 + 4 * i
            by_index.setdefault(pc_index(pc, bits), []).append(pc_tag(pc, 14))
        collisions = sum(
            len(tags) - len(set(tags)) for tags in by_index.values()
        )
        assert collisions <= 2

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            pc_tag(0x1000, 0)


class TestPathHash:
    def test_shifts_in_two_bits(self):
        """Distinct PC sequences produce distinct histories."""
        seq_a = seq_b = 0
        for pc in (0x1004, 0x1008, 0x100C):
            seq_a = path_hash(seq_a, pc, 16)
        for pc in (0x100C, 0x1008, 0x1004):
            seq_b = path_hash(seq_b, pc, 16)
        assert seq_a != seq_b

    def test_width_respected(self):
        history = 0
        for i in range(100):
            history = path_hash(history, 0x1000 + 4 * i, 8)
            assert 0 <= history < (1 << 8)

    def test_same_block_offset_different_blocks_differ(self):
        """Instructions at offset 0 of different cache blocks must
        contribute different path bits (regression: Table V's CAP row
        was degenerate without this)."""
        contributions = {
            path_hash(0, base, 32) for base in (0x40_0000, 0x40_0040,
                                                0x40_0080, 0x40_00C0)
        }
        assert len(contributions) >= 2

    def test_ages_out_old_pcs(self):
        """A width-4 register holds two PCs: after two pushes of the
        same PC, older history is fully displaced (fixed point)."""
        history = path_hash(0, 0xABC0, 4)
        for _ in range(2):
            history = path_hash(history, 0x1000, 4)
        assert path_hash(history, 0x1000, 4) == history

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            path_hash(0, 0x1000, 0)


class TestStableDigest:
    def test_deterministic_and_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_handles_dataclasses_and_tuples(self):
        from repro.composite.config import CompositeConfig

        a = CompositeConfig().homogeneous(256)
        b = CompositeConfig().homogeneous(256)
        c = CompositeConfig().homogeneous(512)
        assert stable_digest(a) == stable_digest(b)
        assert stable_digest(a) != stable_digest(c)
        assert stable_digest((1, 2)) == stable_digest([1, 2])
