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

:func:`load_histories` derives, once per trace, what every
whole-trace evaluator reads of these registers: the predictable loads'
fetch-time histories (and, for the timing model, the branch registers'
states, which the recorded front end hashes its branches from).  The timing model's
probes, the context-aware components' per-load hashes and the
functional backend all read that one :class:`LoadHistories`.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask
from repro.common.tracememo import trace_memo
from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
)

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
    bits (at most 64), starting from zero.  Computed by doubling instead
    of a Python loop over pushes: once each lane holds its last ``span``
    pushes, OR-ing in the lane ``span`` pushes earlier, shifted past
    them, gives its last ``2 * span``; bits shifted above ``width``
    never reach the bits kept.
    """
    n = len(contribs)
    states = np.zeros(n + 1, dtype=np.uint64)
    states[1:] = contribs
    span = 1
    while span * shift < width and span < n:
        states[span + 1 :] |= states[1 : n + 1 - span] << np.uint64(
            span * shift
        )
        span *= 2
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


# ----------------------------------------------------------------------
# The predictable loads' fetch-time histories
# ----------------------------------------------------------------------

_OP_BRANCH_COND = int(OpClass.BRANCH_COND)


class LoadHistories:
    """One trace's predictable loads and the histories each saw at fetch.

    Per load, indexed by its *ordinal* (its index among the trace's
    predictable loads), as uint64 numpy columns: ``pc`` its PC,
    ``direction`` the low 64 bits of the direction register (wider than
    any value-predictor table reads), ``path`` and ``load_path`` the raw
    path registers.  A load is itself a memory event; it sees the memory
    path before its own push.  What only the timing model reads is built
    on its first use: :meth:`branch_states` and :meth:`snapshots`.
    """

    __slots__ = (
        "pc", "direction", "path", "load_path", "_columns",
        "_branch_states", "_snapshots",
    )

    def branch_states(self) -> tuple:
        """``(direction_states, path_states, pushes)``: the direction
        and path registers' states after every push, which the front
        end's TAGE and ITTAGE hashes read, and the number of direction
        pushes before each load."""
        if self._branch_states is None:
            _, (direction, pushes), (path, _), _ = _register_states(
                self._columns
            )
            self._branch_states = direction, path, pushes
        return self._branch_states

    def snapshots(self) -> tuple:
        """The timing model's per-load probe arguments: the full-width
        direction register as ints, and the path and load path as int
        sequences, all indexed by ordinal.

        Bits ``64*j .. 64*j + 63`` of a load's direction register are
        its low 64 bits ``64*j`` pushes earlier (state 0 is the empty
        register), so one int is built per distinct push count (loads
        between two conditional branches share it).
        """
        if self._snapshots is None:
            states, _, pushes = self.branch_states()
            starts = np.diff(pushes, prepend=-1) != 0
            first = np.flatnonzero(starts)
            limbs = np.stack([
                states[np.maximum(pushes[first] - shift, 0)]
                for shift in range(0, MAX_DIRECTION_BITS, 64)
            ], axis=1).astype("<u8").tobytes()
            width = MAX_DIRECTION_BITS // 8
            from_bytes = int.from_bytes
            values = [
                from_bytes(limbs[k:k + width], "little")
                for k in range(0, len(limbs), width)
            ]
            group = np.cumsum(starts) - 1
            self._snapshots = (
                [values[k] for k in group.tolist()],
                memoryview(self.path),
                memoryview(self.load_path),
            )
        return self._snapshots


def _register_states(columns) -> tuple:
    """The predictable loads' PCs and, for the direction, path and load
    path registers in turn, ``(states, pushes)``: the register's state
    after every push and, per load, how many pushes precede it."""
    pc = np.frombuffer(columns.pc, dtype=np.uint64)
    op = np.frombuffer(columns.op, dtype=np.uint8)
    flags = np.frombuffer(columns.flags, dtype=np.uint8)
    is_cond = op == _OP_BRANCH_COND
    is_branch = (op >= OP_BRANCH_FIRST) & (op <= OP_BRANCH_LAST)
    is_memory = (op == OP_LOAD) | (op == OP_STORE)
    loads = np.flatnonzero((flags & FLAG_PREDICTABLE) != 0)
    return pc[loads], (
        shift_states(
            ((flags[is_cond] & FLAG_TAKEN) != 0).astype(np.uint64), 1, 64
        ),
        np.cumsum(is_cond)[loads],
    ), (
        shift_states(path_contributions(pc[is_branch]), 2, PATH_BITS),
        np.cumsum(is_branch)[loads],
    ), (
        shift_states(path_contributions(pc[is_memory]), 2, LOAD_PATH_BITS),
        np.cumsum(is_memory)[loads] - 1,
    )


def derive_load_histories(columns) -> LoadHistories:
    """The :class:`LoadHistories` of packed trace ``columns``: each
    register's state after every push, gathered at every predictable
    load by the number of pushes before it."""
    out = LoadHistories()
    out.pc, *registers = _register_states(columns)
    out.direction, out.path, out.load_path = (
        states[pushes] for states, pushes in registers
    )
    out._columns = columns
    out._branch_states = out._snapshots = None
    return out


def load_histories(trace) -> LoadHistories:
    """``trace``'s :class:`LoadHistories`, derived once per trace
    (:mod:`repro.common.tracememo`)."""
    return trace_memo(
        trace, ("load histories",),
        lambda: derive_load_histories(trace.pack()),
    )
