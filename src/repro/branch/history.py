"""Speculative history registers shared by branch and value predictors.

Three histories are maintained, all updated speculatively at fetch time
and repaired on pipeline flushes by snapshot/restore (the standard
checkpointing approach):

* **direction history** -- one bit per conditional branch (TAGE, CVP),
* **branch path history** -- two PC bits per branch (TAGE index hash,
  CVP's "branch path history"),
* **memory path history** -- two PC bits per load *or store* (CAP /
  DLVP; the paper calls it "load path history", but its Listing-1
  walkthrough -- CAP distinguishing the first 16 inner-loop iterations
  of a loop whose only memory instructions besides the scanned load are
  the memset's stores -- requires stores to shift the register too).

Alongside the raw registers, a :class:`HistorySet` maintains **folded
registers** for the branch unit: for every ``(history length, fold
width)`` a TAGE or ITTAGE table uses, the value
``fold_bits(history & mask(length), width)`` is kept up to date
incrementally -- O(1) per pushed event, the circular-shift-register
folding circuit of real TAGE hardware -- instead of being re-folded
from scratch on every branch probe.  TAGE and ITTAGE register the
direction and branch-path folds they read when
:class:`repro.branch.unit.BranchUnit` binds them; the registers are
bit-identical to the ``fold_bits`` reference at all times (the
invariant ``tests/test_folded_history.py`` enforces), so a hash that
reads them cannot change any table index or tag.

The folds are private to the branch unit.  Value predictors (CVP, CAP,
E-VTAGE) read only the raw registers: a whole-trace timing run looks
their per-load hashes up in :mod:`repro.pipeline.frontend`'s
per-trace rows, and everything else hashes the raw histories with each
component's scalar reference.

Snapshots capture the folded registers too, so a flush restore repairs
every fold width exactly, not just the raw registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bits import fold_bits, mask
from repro.common.hashing import path_hash

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

# Folded registers are stored as plain mutable lists (cells) so the
# per-event update loops below stay allocation-free.  Layouts:
#   direction cell:  [value, out_shift, inject_shift, width, width_mask]
#   path cell:       [value, out_shift, inject_shift, width, width_mask]
# where out_shift positions the evicted bit(s) and inject_shift is
# ``length % width`` (the cancellation position of the CSR circuit; see
# repro.common.hashing.csr_push / csr_push2).


@dataclass(frozen=True)
class HistorySnapshot:
    """An immutable copy of all history registers, taken at fetch.

    ``folded`` carries the folded registers (in fold registration
    order) so :meth:`HistorySet.restore` can repair them exactly; an
    empty tuple (e.g. a hand-built snapshot in tests) makes consumers
    fall back to folding the raw registers with ``fold_bits``.
    """

    direction: int
    path: int
    load_path: int
    folded: tuple[int, ...] = field(default=())


class HistorySet:
    """The mutable register file of speculative histories."""

    def __init__(self) -> None:
        self.direction = 0
        self.path = 0
        self.load_path = 0
        # Folded registers, grouped by the event that advances them.
        self._dir_cells: list[list[int]] = []
        self._path_cells: list[list[int]] = []
        # (kind, length, width) -> snapshot slot, plus flat slot order.
        self._slot_by_key: dict[tuple[str, int, int], int] = {}
        self._slot_cells: list[list[int]] = []
        self._slot_specs: list[tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    # Fold registration
    # ------------------------------------------------------------------

    def _register(self, kind: str, length: int, width: int,
                  source: int, group: list[list[int]]) -> int:
        if width <= 0:
            raise ValueError(f"fold width must be positive, got {width}")
        key = (kind, length, width)
        slot = self._slot_by_key.get(key)
        if slot is not None:
            return slot
        cell = [
            fold_bits(source & mask(length), width),
            length - 1 if kind == "direction" else length - 2,
            length % width,
            width,
            mask(width),
        ]
        group.append(cell)
        slot = len(self._slot_cells)
        self._slot_by_key[key] = slot
        self._slot_cells.append(cell)
        self._slot_specs.append(key)
        return slot

    def register_direction_fold(self, length: int, width: int) -> int:
        """Maintain ``fold_bits(direction & mask(length), width)``.

        Returns the snapshot slot of the fold (its position in
        :meth:`folded_values` tuples).  Registration is idempotent per
        ``(length, width)`` and may happen at any time: the register is
        seeded from the current raw history, so it is bit-exact from
        the first event.
        """
        length = min(max(length, 1), MAX_DIRECTION_BITS)
        return self._register(
            "direction", length, width, self.direction, self._dir_cells
        )

    def register_path_fold(self, width: int) -> int:
        """Maintain ``fold_bits(path, width)`` (branch path history)."""
        return self._register(
            "path", PATH_BITS, width, self.path, self._path_cells
        )

    def fold_cell(self, slot: int) -> list[int]:
        """The mutable cell behind ``slot``; element 0 is the live value.

        TAGE and ITTAGE, probed at fetch before the event is pushed,
        read the live cells directly.
        """
        return self._slot_cells[slot]

    def folded_values(self) -> tuple[int, ...]:
        """Current value of every registered fold, in slot order."""
        return tuple([cell[0] for cell in self._slot_cells])

    # ------------------------------------------------------------------
    # Event pushes
    # ------------------------------------------------------------------

    def push_branch(self, pc: int, taken: bool) -> None:
        """Record one fetched conditional branch."""
        d = self.direction
        b = 1 if taken else 0
        for c in self._dir_cells:
            # Inlined csr_push (see repro.common.hashing): rotate in the
            # new bit, cancel the evicted bit, wrap the overflow.
            v = ((c[0] << 1) | b) ^ (((d >> c[1]) & 1) << c[2])
            if v > c[4]:
                v = (v & c[4]) ^ (v >> c[3])
            c[0] = v
        self.direction = ((d << 1) | b) & _DIRECTION_MASK
        self._push_path(pc)

    def push_unconditional(self, pc: int) -> None:
        """Record a taken unconditional branch (path history only)."""
        self._push_path(pc)

    def _push_path(self, pc: int) -> None:
        p = self.path
        # Inlined path_hash contribution (kept in lockstep with
        # repro.common.hashing.path_hash).
        contribution = ((pc >> 2) ^ (pc >> 5) ^ (pc >> 9)) & 0b11
        for c in self._path_cells:
            out2 = p >> c[1]
            v = ((c[0] << 2) | contribution) \
                ^ (((out2 >> 1) & 1) << (c[2] + 1)) ^ ((out2 & 1) << c[2])
            while v > c[4]:
                v = (v & c[4]) ^ (v >> c[3])
            c[0] = v
        self.path = ((p << 2) | contribution) & _PATH_MASK

    def push_memory(self, pc: int) -> None:
        """Record one fetched load or store (CAP's memory path history)."""
        contribution = ((pc >> 2) ^ (pc >> 5) ^ (pc >> 9)) & 0b11
        self.load_path = (
            (self.load_path << 2) | contribution
        ) & _LOAD_PATH_MASK

    # Backwards-compatible alias; CAP literature says "load path".
    push_load = push_memory

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> HistorySnapshot:
        return HistorySnapshot(
            self.direction, self.path, self.load_path, self.folded_values()
        )

    def restore(self, snap: HistorySnapshot) -> None:
        """Restore raw *and* folded registers from a flush checkpoint.

        Folds registered after the snapshot was taken are not covered by
        ``snap.folded``; they are re-seeded from the restored raw
        registers (the ``fold_bits`` oracle), so every fold width is
        exact after a restore regardless of registration order.
        """
        self.direction = snap.direction
        self.path = snap.path
        self.load_path = snap.load_path
        folded = snap.folded
        known = len(folded)
        for slot, cell in enumerate(self._slot_cells):
            if slot < known:
                cell[0] = folded[slot]
            else:
                kind, length, width = self._slot_specs[slot]
                source = (
                    snap.direction if kind == "direction" else snap.path
                )
                cell[0] = fold_bits(source & mask(length), width)

    def direction_bits(self, length: int) -> int:
        """The most recent ``length`` direction bits, as an integer."""
        if length <= 0:
            return 0
        return self.direction & mask(min(length, MAX_DIRECTION_BITS))
