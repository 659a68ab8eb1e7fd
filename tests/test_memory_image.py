"""Tests for the sparse functional memory image."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import mask
from repro.memory.image import MemoryImage


class TestBasicReadWrite:
    def test_default_zero(self):
        assert MemoryImage().read(0x1234, 8) == 0

    def test_aligned_word(self):
        img = MemoryImage()
        img.write(0x100, 8, 0xDEADBEEFCAFEF00D)
        assert img.read(0x100, 8) == 0xDEADBEEFCAFEF00D

    def test_sub_word_little_endian(self):
        img = MemoryImage()
        img.write(0x100, 8, 0x1122334455667788)
        assert img.read(0x100, 1) == 0x88
        assert img.read(0x100, 2) == 0x7788
        assert img.read(0x102, 2) == 0x5566

    def test_unaligned_crossing_words(self):
        img = MemoryImage()
        img.write(0x105, 8, 0xAABBCCDDEEFF0011)
        assert img.read(0x105, 8) == 0xAABBCCDDEEFF0011

    def test_write_masks_to_size(self):
        img = MemoryImage()
        img.write(0x0, 2, 0x12345)
        assert img.read(0x0, 2) == 0x2345

    def test_partial_overwrite(self):
        img = MemoryImage()
        img.write(0x0, 8, 0xFFFFFFFFFFFFFFFF)
        img.write(0x2, 2, 0)
        assert img.read(0x0, 8) == 0xFFFFFFFF0000FFFF

    def test_copy_is_independent(self):
        img = MemoryImage()
        img.write(0x0, 8, 1)
        clone = img.copy()
        clone.write(0x0, 8, 2)
        assert img.read(0x0, 8) == 1
        assert clone.read(0x0, 8) == 2

    def test_len_counts_words(self):
        img = MemoryImage()
        img.write(0x0, 8, 1)
        img.write(0x8, 8, 2)
        assert len(img) == 2


class TestAgainstByteReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=63),      # addr
        st.sampled_from([1, 2, 4, 8]),               # size
        st.integers(min_value=0, max_value=2**64 - 1),
    ), max_size=40))
    def test_matches_bytearray(self, operations):
        img = MemoryImage()
        reference = bytearray(80)
        for addr, size, value in operations:
            img.write(addr, size, value)
            reference[addr:addr + size] = (value & ((1 << (8 * size)) - 1)
                                           ).to_bytes(size, "little")
        for addr, size, _ in operations:
            expected = int.from_bytes(reference[addr:addr + size], "little")
            assert img.read(addr, size) == expected


class ByteLoopImage:
    """The per-byte reference for :class:`MemoryImage` reads and writes:
    each byte of an access looked up (and, for a write, stored back) in
    its own word, lowest address first."""

    def __init__(self, words: dict) -> None:
        self._words = dict(words)

    def read(self, addr: int, size: int) -> int:
        if size == 8 and not addr & 0b111:
            return self._words.get(addr >> 3, 0)
        value = 0
        for i in range(size):
            byte_addr = addr + i
            word = self._words.get(byte_addr >> 3, 0)
            byte = (word >> ((byte_addr & 0b111) * 8)) & 0xFF
            value |= byte << (i * 8)
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        value &= mask(size * 8)
        if size == 8 and not addr & 0b111:
            self._words[addr >> 3] = value
            return
        for i in range(size):
            byte_addr = addr + i
            word_key = byte_addr >> 3
            shift = (byte_addr & 0b111) * 8
            word = self._words.get(word_key, 0)
            word &= ~(0xFF << shift)
            word |= ((value >> (i * 8)) & 0xFF) << shift
            self._words[word_key] = word


class TestAgainstByteLoop:
    """Whole-word reads and writes equal the per-byte reference: every
    value read and every stored word, in insertion order (the order
    ``to_packed`` dumps), including accesses that straddle words, odd
    and oversized sizes, and values outside the access width."""

    @settings(max_examples=200, deadline=None)
    @given(
        preloaded=st.dictionaries(
            st.integers(0, 8),
            st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**70, 2**70)),
            max_size=4,
        ),
        operations=st.lists(st.tuples(
            st.booleans(),                                   # write?
            st.integers(0, 70),                              # addr
            st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 16]),  # size
            st.integers(-2**80, 2**80),                      # value
        ), max_size=40),
    )
    def test_matches_the_byte_loop(self, preloaded, operations):
        image = MemoryImage()
        image._words = dict(preloaded)
        reference = ByteLoopImage(preloaded)
        for write, addr, size, value in operations:
            if write:
                outcomes = []
                for target in (image, reference):
                    try:
                        target.write(addr, size, value)
                        outcomes.append(None)
                    except ValueError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
            else:
                assert image.read(addr, size) == reference.read(addr, size)
            assert list(image._words.items()) == list(
                reference._words.items()
            )
