"""Speculative history registers shared by branch and value predictors.

Three histories are maintained, all updated at fetch with the actual
outcome:

* **direction history** -- one bit per conditional branch (TAGE, CVP),
* **branch path history** -- two PC bits per branch (TAGE index hash,
  CVP's "branch path history"),
* **memory path history** -- two PC bits per load *or store* (CAP /
  DLVP; the paper calls it "load path history", but its Listing-1
  walkthrough -- CAP distinguishing the first 16 inner-loop iterations
  of a loop whose only memory instructions besides the scanned load are
  the memset's stores -- requires stores to shift the register too).

:class:`HistorySet` holds the raw registers for code that sees one
event at a time: serve sessions and the test oracles.

Every register state is a pure function of the trace prefix, so a
whole trace's states can also be computed at once.
:func:`shift_states` builds a register's state after every push as a
numpy column, and :func:`direction_folds` folds the direction register
from those states the way a TAGE table reads it: a branch predictor's
index and tag hashes are computed per trace as columns (see
:meth:`repro.branch.tage.TagePredictor.hash_columns`) instead of
emulating the folded-register circuit of real hardware branch by
branch.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask

#: Maximum direction-history length kept (longest TAGE table plus slack).
MAX_DIRECTION_BITS = 256
#: Width of the path history registers, in bits.
PATH_BITS = 32
#: 16 memory operations x 2 bits: deep enough that CAP separates the
#: first 16 iterations of the paper's Listing-1 inner loop (Table V).
LOAD_PATH_BITS = 32

_DIRECTION_MASK = mask(MAX_DIRECTION_BITS)
_PATH_MASK = mask(PATH_BITS)
_LOAD_PATH_MASK = mask(LOAD_PATH_BITS)


class HistorySet:
    """The mutable register file of speculative histories."""

    def __init__(self) -> None:
        self.direction = 0
        self.path = 0
        self.load_path = 0

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before the folded registers were removed
        # pickled them beside the raw registers; only the latter carry
        # state.
        self.direction = state["direction"]
        self.path = state["path"]
        self.load_path = state["load_path"]

    def push_branch(self, pc: int, taken: bool) -> None:
        """Record one fetched conditional branch."""
        self.direction = (
            (self.direction << 1) | (1 if taken else 0)
        ) & _DIRECTION_MASK
        contribution = ((pc >> 2) ^ (pc >> 5) ^ (pc >> 9)) & 0b11
        self.path = ((self.path << 2) | contribution) & _PATH_MASK

    def push_unconditional(self, pc: int) -> None:
        """Record a branch in the path history only (every branch that
        is not conditional)."""
        contribution = ((pc >> 2) ^ (pc >> 5) ^ (pc >> 9)) & 0b11
        self.path = ((self.path << 2) | contribution) & _PATH_MASK

    def push_memory(self, pc: int) -> None:
        """Record one fetched load or store (CAP's memory path history)."""
        contribution = ((pc >> 2) ^ (pc >> 5) ^ (pc >> 9)) & 0b11
        self.load_path = (
            (self.load_path << 2) | contribution
        ) & _LOAD_PATH_MASK

    def direction_bits(self, length: int) -> int:
        """The most recent ``length`` direction bits, as an integer."""
        if length <= 0:
            return 0
        return self.direction & mask(min(length, MAX_DIRECTION_BITS))


# ----------------------------------------------------------------------
# Whole-trace register states
# ----------------------------------------------------------------------


def path_contributions(pc: np.ndarray) -> np.ndarray:
    """Element-wise path-history contribution (two PC bits) of each
    pushed PC, as :meth:`HistorySet.push_unconditional` and
    :meth:`HistorySet.push_memory` compute it."""
    return (
        (pc >> np.uint64(2)) ^ (pc >> np.uint64(5)) ^ (pc >> np.uint64(9))
    ) & np.uint64(0b11)


def shift_states(contribs: np.ndarray, shift: int, width: int) -> np.ndarray:
    """Prefix states of a shift register, one lane per push.

    ``states[k]`` is the register value after the first ``k`` pushes of
    ``reg = (reg << shift) | contribs[k]``, keeping the low ``width``
    bits (at most 64), starting from zero.  Computed as
    ``width / shift`` shifted-OR passes over the contribution column
    instead of a Python loop over pushes.
    """
    n = len(contribs)
    states = np.zeros(n + 1, dtype=np.uint64)
    for j in range((width + shift - 1) // shift):
        if j >= n:
            break
        states[j + 1 :] |= contribs[: n - j] << np.uint64(j * shift)
    return states & np.uint64(mask(width))


def direction_folds(
    states: np.ndarray, pushes: np.ndarray, length: int, width: int
) -> np.ndarray:
    """``fold_bits(direction & mask(length), width)`` at each query.

    ``states`` holds the low 64 bits of the direction register after
    each number of pushes (:func:`shift_states` with ``shift=1``) and
    ``pushes[q]`` the number of conditional branches before query
    ``q``.  Chunk ``c`` of the folded history -- its bits
    ``c*width .. c*width + width - 1`` -- is the ``width``-bit register
    state ``c*width`` pushes earlier, so the fold is the XOR of the
    states lagged by ``0, width, 2*width, ...`` pushes, the last one cut
    to the bits below ``length``.  ``width`` must be at most 64.
    """
    length = min(length, MAX_DIRECTION_BITS)
    # ``length`` zero states stand for the pushes before the trace.
    padded = np.concatenate(
        (np.zeros(length, dtype=np.uint64), states & np.uint64(mask(width)))
    )
    at = pushes + length
    out = np.zeros(len(pushes), dtype=np.uint64)
    for lag in range(0, length, width):
        chunk = padded[at - lag]
        if length - lag < width:
            chunk &= np.uint64(mask(length - lag))
        out ^= chunk
    return out
