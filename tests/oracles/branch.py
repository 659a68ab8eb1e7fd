"""The scalar branch-predictor hashes and a branch unit driven live.

:meth:`TagePredictor.hash_columns` and :meth:`IttagePredictor.hash_columns`
compute a whole trace's table indices and tags at once.  Here are the
same hashes restated one branch at a time from the raw history
registers with :func:`fold_bits` -- the reference the column kernels
are held to -- and a :class:`LiveBranchUnit` that owns a
:class:`HistorySet`, hashes each branch by that reference and pushes
the histories as it goes.  :func:`record_live` records a trace's front
end through it one instruction at a time, as
:func:`repro.pipeline.frontend.frontend_stream` records it in a batch.
"""

from __future__ import annotations

from repro.branch.history import HistorySet
from repro.branch.ittage import IttagePredictor
from repro.branch.tage import _TAG_SCRAMBLE, TagePredictor
from repro.branch.unit import BranchOutcome, BranchUnit
from repro.common.bits import fold_bits, mask
from repro.common.hashing import mix64
from repro.common.rng import DeterministicRng
from repro.isa.columns import FLAG_IS_CALL, FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
)
from repro.pipeline.frontend import branch_stats

_MASK64 = mask(64)
_COND = int(OpClass.BRANCH_COND)
_INDIRECT = int(OpClass.BRANCH_INDIRECT)


def tage_hashes(tage: TagePredictor, pc: int, direction: int, path: int):
    """TAGE's ``(indices, tags)`` for ``pc`` under the raw histories."""
    bits = tage._index_bits
    tag_bits = tage.config.tag_bits
    indices = []
    tags = []
    for table, length in enumerate(tage._lengths):
        history = direction & mask(length)
        value = (pc >> 2) ^ (pc >> (2 + bits)) ^ fold_bits(history, bits)
        value ^= fold_bits(path, bits) ^ tage._index_salts[table]
        indices.append(fold_bits(value, bits))
        scrambled = ((history ^ (table + 1)) * _TAG_SCRAMBLE) & _MASK64
        value = (pc >> 2) ^ fold_bits(history, tag_bits - 1) ^ fold_bits(
            scrambled, tag_bits
        )
        tags.append(fold_bits(value, tag_bits))
    return tuple(indices), tuple(tags)


def ittage_hashes(
    ittage: IttagePredictor, pc: int, direction: int, path: int
):
    """ITTAGE's ``(indices, tags)`` for ``pc`` under the raw histories."""
    bits = ittage._index_bits
    indices = []
    tags = []
    for table, length in enumerate(ittage._lengths):
        history = direction & mask(length)
        value = (pc >> 2) ^ fold_bits(history, bits)
        value ^= fold_bits(path, bits) ^ ittage._index_salts[table]
        indices.append(fold_bits(value, bits))
        tags.append(fold_bits(
            (pc >> 2) ^ mix64(history ^ (table + 101)),
            ittage.config.tag_bits,
        ))
    return tuple(indices), tuple(tags)


class LiveBranchUnit(BranchUnit):
    """A :class:`BranchUnit` with its own history registers, fed one
    branch at a time by the scalar reference hashes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.histories = HistorySet()

    def fetch(
        self, pc: int, op: int, taken: bool, target: int, is_call: bool
    ) -> BranchOutcome:
        """Predict one fetched branch, then push it into the histories."""
        h = self.histories
        hashes = None
        if op == _COND:
            hashes = tage_hashes(self.tage, pc, h.direction, h.path)
        elif op == _INDIRECT:
            hashes = ittage_hashes(self.ittage, pc, h.direction, h.path)
        outcome = self.fetch_branch_fields(
            pc, op, taken, target, is_call, hashes
        )
        if op == _COND:
            h.push_branch(pc, taken)
        else:
            h.push_unconditional(pc)
        return outcome

    def note_memory_op(self, pc: int) -> None:
        """Record a fetched load or store in the memory path history."""
        self.histories.push_memory(pc)


def record_live(trace, tage_config, ittage_config, ras_entries, seed):
    """``trace``'s front end recorded one instruction at a time: the
    fields of a :class:`~repro.pipeline.frontend.FrontEndStream`, as
    plain lists plus the branch statistics."""
    unit = LiveBranchUnit(
        tage_config, ittage_config, ras_entries,
        DeterministicRng(seed, "core"),
    )
    histories = unit.histories
    recorded = {
        "branch_codes": [], "pc": [], "direction": [], "path": [],
        "load_path": [],
    }
    cols = trace.pack()
    for i in range(len(cols)):
        op = cols.op[i]
        pc = cols.pc[i]
        flags = cols.flags[i]
        if OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST:
            taken = flags & FLAG_TAKEN
            target = cols.target[i]
            outcome = unit.fetch(pc, op, taken, target, flags & FLAG_IS_CALL)
            unit.resolve_fields(pc, taken, target, outcome)
            recorded["branch_codes"].append(
                outcome.fetch_bubble << 1 | outcome.mispredicted
            )
        elif op == OP_LOAD or op == OP_STORE:
            if op == OP_LOAD and flags & FLAG_PREDICTABLE:
                recorded["pc"].append(pc)
                recorded["direction"].append(histories.direction)
                recorded["path"].append(histories.path)
                recorded["load_path"].append(histories.load_path)
            unit.note_memory_op(pc)
    recorded["branch_stats"] = branch_stats(unit)
    return recorded
