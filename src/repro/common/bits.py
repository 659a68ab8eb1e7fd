"""Bit-level helpers shared by predictor tables and the timing model.

All hardware structures in the paper are specified in bits (e.g. "14-bit
tag, 49-bit virtual address").  These helpers centralize the masking and
folding arithmetic so that storage accounting and index/tag computation
stay consistent across predictors.
"""

from __future__ import annotations

import numpy as np


def mask(width: int) -> int:
    """Return a bit mask with ``width`` low-order bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate ``value`` to its ``width`` low-order bits (unsigned)."""
    return value & mask(width)


def sign_extend(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as a signed integer.

    Used for stride fields: SAP stores a 10-bit signed stride.

    >>> sign_extend(0b1111111111, 10)
    -1
    >>> sign_extend(5, 10)
    5
    """
    if width <= 0:
        raise ValueError(f"sign_extend width must be positive, got {width}")
    value = truncate(value, width)
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def fold_bits(value: int, width: int) -> int:
    """Fold an arbitrarily wide value down to ``width`` bits by XOR.

    This is the classic hardware history-folding circuit: the value is
    chopped into ``width``-bit chunks which are XORed together.  Folding
    preserves entropy from all input bits, unlike plain truncation.

    Inputs must be non-negative: a negative value has no bit-vector
    interpretation, and silently folding ``abs(value)`` would alias
    e.g. a stray ``INVALID_TAG = -1`` with ``+1`` instead of failing.

    Whole-column hashes use :func:`fold_bits_np`; the scalar form
    serves code that hashes one value at a time.

    >>> fold_bits(0b1010_0101, 4)
    15
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    if value < 0:
        raise ValueError(f"fold_bits input must be non-negative, got {value}")
    folded = 0
    chunk_mask = (1 << width) - 1  # inlined: this loop is simulator-hot
    while value:
        folded ^= value & chunk_mask
        value >>= width
    return folded


def fold_plan(width: int) -> tuple[int, ...]:
    """:func:`fold_bits` to ``width`` bits as three halving steps.

    Returns ``(span, span_mask, m1, s1, m2, s2, m3, s3)``.  ``span`` is
    the smallest multiple of ``width`` that covers 64 bits, and each
    step ``(m, s)`` XORs the upper half of the chunks left onto the
    lower half (a step with ``s == span`` pads a plan that needs fewer
    than three).  Regrouping whole chunks keeps their XOR, so

    .. code-block:: python

        while v >> span:
            v = (v & span_mask) ^ (v >> span)
        v = (v & m1) ^ (v >> s1)
        v = (v & m2) ^ (v >> s2)
        v = (v & m3) ^ (v >> s3)
        while v > mask(width):
            v = (v & mask(width)) ^ (v >> width)

    leaves ``v == fold_bits(v0, width)`` for every non-negative
    ``v0``.  A 64-bit value takes ``ceil(log2(64 / width))`` steps
    and no turn of either loop when ``width >= 8`` (a table of 256
    sets or more, or a 14-bit tag), where folding chunk by chunk takes
    one turn per chunk.  The first loop folds inputs wider than 64
    bits; the last finishes narrower widths chunk by chunk.
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    chunks = -(-64 // width)
    span = chunks * width
    steps = []
    while chunks > 1 and len(steps) < 6:
        chunks = (chunks + 1) // 2
        steps += (mask(chunks * width), chunks * width)
    padding = [mask(span), span] * (3 - len(steps) // 2)
    return (span, mask(span), *padding, *steps)


#: :func:`fold_plan` of every width from 1 to 64, indexed by width.
FOLD_PLANS = (None,) + tuple(fold_plan(width) for width in range(1, 65))


def shr_np(values: np.ndarray, shift: int) -> np.ndarray:
    """``values >> shift`` with the Python-int convention that shifting
    a 64-bit lane by >= 64 yields zero (numpy would be undefined)."""
    if shift >= 64:
        return np.zeros_like(values)
    return values >> np.uint64(shift)


def fold_bits_np(values: np.ndarray, width: int) -> np.ndarray:
    """Element-wise :func:`fold_bits` over unsigned 64-bit lanes."""
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    if width >= 64:
        return values.copy()
    m = np.uint64((1 << width) - 1)
    w = np.uint64(width)
    out = values & m
    rest = values >> w
    while rest.any():
        out ^= rest & m
        rest >>= w
    return out


def bit_length_for(entries: int) -> int:
    """Number of index bits needed to address ``entries`` table slots.

    ``entries`` must be a power of two, matching how hardware tables are
    sized throughout the paper (64 .. 4096 entries).

    >>> bit_length_for(1024)
    10
    """
    if entries <= 0 or entries & (entries - 1):
        raise ValueError(f"table entries must be a power of two, got {entries}")
    return entries.bit_length() - 1
