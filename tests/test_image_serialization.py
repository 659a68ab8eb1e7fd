"""Tests for memory-image serialization and bulk word writes.

The JSON word map and the packed ``uint64`` buffers of the binary trace
store both drop zero words and keep insertion order.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.image import MemoryImage


class TestWordMap:
    def test_roundtrip(self):
        image = MemoryImage()
        image.write(0x100, 8, 0xDEADBEEF)
        image.write(0x1000, 4, 7)
        restored = MemoryImage.from_word_map(image.to_word_map())
        assert restored.read(0x100, 8) == 0xDEADBEEF
        assert restored.read(0x1000, 4) == 7

    def test_zero_words_omitted(self):
        image = MemoryImage()
        image.write(0x100, 8, 5)
        image.write(0x100, 8, 0)  # back to zero
        assert image.to_word_map() == {}

    def test_empty(self):
        assert MemoryImage.from_word_map({}).read(0, 8) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        max_size=30,
    ))
    def test_roundtrip_property(self, words):
        image = MemoryImage()
        for word_addr, value in words.items():
            image.write(word_addr * 8, 8, value)
        restored = MemoryImage.from_word_map(image.to_word_map())
        for word_addr, value in words.items():
            assert restored.read(word_addr * 8, 8) == value


#: Examples per packing property test: 60 in tier-1, 300 under the
#: ``fuzz-wide`` profile registered in ``tests/conftest.py``.
FUZZ_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "fuzz-wide" else 60
)

_word_index = st.integers(min_value=0, max_value=(1 << 61) - 1)
_word_value = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.sampled_from([1, (1 << 63), (1 << 64) - 1]),
)


def reference_to_packed(image: MemoryImage) -> tuple[bytes, bytes]:
    """Word-by-word packing into native ``array('Q')`` buffers."""
    keys = array("Q")
    values = array("Q")
    for key, value in image._words.items():
        if value:
            keys.append(key)
            values.append(value)
    return keys.tobytes(), values.tobytes()


class TestPacked:
    def test_empty(self):
        image = MemoryImage()
        assert image.to_packed() == (b"", b"")
        assert len(MemoryImage.from_packed(b"", b"")) == 0

    def test_mismatched_lengths_rejected(self):
        image = MemoryImage()
        image.write(0x100, 8, 5)
        keys, values = image.to_packed()
        with pytest.raises(ValueError, match="mismatched"):
            MemoryImage.from_packed(keys, values + values)

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(st.lists(st.tuples(_word_index, _word_value), max_size=60))
    def test_roundtrip_property(self, writes):
        image = MemoryImage()
        for word, value in writes:
            image.write(word * 8, 8, value)
        keys, values = image.to_packed()
        assert (keys, values) == reference_to_packed(image)
        restored = MemoryImage.from_packed(keys, values)
        # Zero words are left out; the rest keep their insertion order.
        nonzero = [(k, v) for k, v in image._words.items() if v]
        assert list(restored._words.items()) == nonzero
        for word, _ in writes:
            assert restored.read(word * 8, 8) == image.read(word * 8, 8)

    def test_zero_words_left_out_in_order(self):
        image = MemoryImage()
        for word, value in [(9, 1), (3, 0), (7, 2), (1, 3), (7, 0)]:
            image.write(word * 8, 8, value)
        keys, values = image.to_packed()
        assert array("Q", keys).tolist() == [9, 1]
        assert array("Q", values).tolist() == [1, 3]


class TestWriteWords:
    def test_any_int_sequence(self):
        image = MemoryImage()
        image.write_words(0xA000, range(1, 1 + 64))
        for i in range(64):
            assert image.read(0xA000 + 8 * i, 8) == i + 1

    @pytest.mark.parametrize("stride", [8, 16, 64])
    def test_sequence_column_and_writes_agree(self, stride):
        words = [0, 1, (1 << 64) - 1, -1, 1 << 64, 0x1234]
        by_sequence = MemoryImage()
        by_sequence.write_words(0x400, words, stride=stride)
        by_column = MemoryImage()
        by_column.write_words(
            0x400, np.array([w % (1 << 64) for w in words], dtype=np.uint64),
            stride=stride,
        )
        by_write = MemoryImage()
        for i, word in enumerate(words):
            by_write.write(0x400 + i * stride, 8, word)
        assert list(by_sequence._words.items()) \
            == list(by_column._words.items()) \
            == list(by_write._words.items())
        assert all(type(v) is int for v in by_column._words.values())

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage().write_words(0x404, [1])
        with pytest.raises(ValueError):
            MemoryImage().write_words(0x400, [1], stride=12)
