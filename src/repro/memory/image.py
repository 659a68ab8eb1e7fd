"""A functional memory image for resolving predicted-address probes.

Address predictors (SAP, CAP) return a *value* by probing the data
cache at a predicted address.  To decide whether that speculative value
matches what the load eventually returns, the pipeline needs to know
what memory held at the predicted address *at probe time* -- which may
differ from the load's architectural value if an in-flight store later
changes the location (the "conflicting stores" problem DLVP targets).

The image stores 64-bit aligned words sparsely and supports sub-word
reads/writes of 1/2/4/8 bytes, little-endian.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask

_WORD_MASK = mask(64)


class MemoryImage:
    """Sparse byte-accurate memory contents."""

    __slots__ = ("_words",)

    _WORD_SHIFT = 3  # 8-byte words

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def read(self, addr: int, size: int) -> int:
        """Little-endian read of ``size`` bytes at ``addr`` (zero default).

        An aligned 8-byte access returns the stored word as it is; one
        inside one 8-byte word is one lookup, a shift and a mask; a wider
        one assembles the words it spans.
        """
        shift = (addr & 7) << 3
        bits = size << 3
        if 0 < bits <= 64 - shift:
            if bits == 64:
                return self._words.get(addr >> 3, 0)
            return self._words.get(addr >> 3, 0) >> shift & (1 << bits) - 1
        if size <= 0:
            return 0
        get = self._words.get
        span = 0
        for offset, word in enumerate(range(addr >> 3, (addr + size + 7) >> 3)):
            span |= (get(word, 0) & _WORD_MASK) << (offset << 6)
        return span >> shift & (1 << bits) - 1

    def write(self, addr: int, size: int, value: int) -> None:
        """Little-endian write of ``size`` bytes at ``addr``.

        Every word the bytes touch is stored, in address order, even if
        it stays zero (``to_packed`` drops zero words).  An access
        inside one 8-byte word is one lookup and one store.
        """
        shift = (addr & 7) << 3
        bits = size << 3
        words = self._words
        if 0 < bits <= 64 - shift:
            if bits == 64:
                words[addr >> 3] = value & _WORD_MASK
            else:
                key = addr >> 3
                field = (1 << bits) - 1
                words[key] = (
                    words.get(key, 0) & ~(field << shift)
                    | (value & field) << shift
                )
            return
        field = mask(bits) << shift  # a negative size raises, as in mask
        if not field:
            return
        value = (value << shift) & field
        get = words.get
        for offset, word in enumerate(range(addr >> 3, (addr + size + 7) >> 3)):
            low = offset << 6
            part = field >> low & _WORD_MASK
            words[word] = get(word, 0) & ~part | value >> low & part

    def write_words(self, base: int, values, stride: int = 8) -> None:
        """Bulk little-endian write of whole 8-byte words.

        ``values[i]`` lands at ``base + i * stride``; both ``base`` and
        ``stride`` must be 8-byte multiples so each value occupies one
        backing word exactly.  ``values`` is a numpy integer column
        (converted with ``tolist`` once) or any sequence of ints; each
        is taken modulo 2**64.  The words go in with one ``dict.update``
        in index order, so keys new to the image are inserted in that
        order, as ``len(values)`` :meth:`write` calls would insert them.
        """
        if base & 0b111 or stride & 0b111:
            raise ValueError(
                f"write_words needs 8-byte alignment: base={base:#x}, "
                f"stride={stride}"
            )
        if isinstance(values, np.ndarray):
            words = values.astype(np.uint64, copy=False).tolist()
        else:
            word_mask = mask(64)
            words = [value & word_mask for value in values]
        step = stride >> self._WORD_SHIFT
        first = base >> self._WORD_SHIFT
        self._words.update(
            zip(range(first, first + len(words) * step, step), words)
        )

    def __len__(self) -> int:
        return len(self._words)

    def copy(self) -> "MemoryImage":
        clone = MemoryImage()
        clone._words = dict(self._words)
        return clone

    # ------------------------------------------------------------------
    # Serialization (trace files persist the initial image)
    # ------------------------------------------------------------------

    def to_packed(self) -> tuple[bytes, bytes]:
        """Dump the non-zero words as two native ``uint64`` buffers.

        Returns ``(keys, values)`` -- word indices and word contents in
        matching (insertion) order.  This is the binary-trace-store
        layout: two ``frombytes`` calls rebuild the image, against
        thousands of per-word ``hex()``/``int()`` conversions for the
        JSON word map.
        """
        count = len(self._words)
        keys = np.fromiter(self._words.keys(), dtype=np.uint64, count=count)
        values = np.fromiter(
            self._words.values(), dtype=np.uint64, count=count
        )
        nonzero = values != 0
        return keys[nonzero].tobytes(), values[nonzero].tobytes()

    @classmethod
    def from_packed(cls, keys: bytes, values: bytes) -> "MemoryImage":
        """Inverse of :meth:`to_packed`."""
        from array import array

        key_arr = array("Q")
        value_arr = array("Q")
        key_arr.frombytes(keys)
        value_arr.frombytes(values)
        if len(key_arr) != len(value_arr):
            raise ValueError(
                "packed memory image has mismatched key/value lengths"
            )
        image = cls()
        image._words = dict(zip(key_arr, value_arr))
        return image

    def to_word_map(self) -> dict[str, str]:
        """Sparse word map with hex keys/values, for JSON embedding."""
        return {hex(k): hex(v) for k, v in self._words.items() if v}

    @classmethod
    def from_word_map(cls, word_map: dict[str, str]) -> "MemoryImage":
        """Inverse of :meth:`to_word_map`."""
        image = cls()
        image._words = {int(k, 16): int(v, 16) for k, v in word_map.items()}
        return image
