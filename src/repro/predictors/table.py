"""Banked, tagged prediction tables.

Every component predictor stores its state in one or more
:class:`BankedTable` instances.  A table starts with a single
direct-mapped bank; the composite layer's *table fusion* optimization
(Section V-E of the paper) can attach extra banks donated by
under-performing predictors, at which point lookups search all banks
set-associatively -- exactly the "donor tables are added as if they
were additional cache ways" design the paper describes.

The storage is the gem5 shape, plain tagged arrays: each bank is a
tuple of one Python list per entry field (``tag`` first, payload
fields, ``confidence`` last), indexed by set.  Components and the
vectorized functional backend (:mod:`repro.harness.functional_vec`)
read and write those columns directly.  Capacity changes mutate the
bank list and the columns in place, so a reference to bank 0 or to
one of its columns stays valid for the table's lifetime.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.bits import bit_length_for

#: Tag value marking an invalid (never written) entry.
INVALID_TAG = -1

#: One bank: a column (list, indexed by set) per entry field.
Bank = tuple[list[int], ...]


class BankedTable:
    """A direct-mapped table that can grow extra associative banks.

    ``fields`` declares the entry layout as ``(name, reset value)``
    pairs; the first must be ``("tag", INVALID_TAG)`` and the last
    ``("confidence", 0)``.
    """

    def __init__(self, sets: int, fields: tuple[tuple[str, int], ...]) -> None:
        if fields[0] != ("tag", INVALID_TAG) or fields[-1] != ("confidence", 0):
            raise ValueError(
                f"fields must run from ('tag', {INVALID_TAG}) to "
                f"('confidence', 0), got {fields}"
            )
        self.sets = sets
        self.index_bits = bit_length_for(sets)
        self.fields = tuple(name for name, _ in fields)
        self._defaults = tuple(default for _, default in fields)
        self.banks: list[Bank] = [self._new_bank()]

    def _new_bank(self) -> Bank:
        return tuple([default] * self.sets for default in self._defaults)

    # ------------------------------------------------------------------
    # Capacity management (fusion support)
    # ------------------------------------------------------------------

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    @property
    def total_entries(self) -> int:
        return self.sets * len(self.banks)

    def add_banks(self, count: int) -> None:
        """Attach ``count`` fresh banks (receiver side of fusion)."""
        if count < 0:
            raise ValueError(f"bank count must be non-negative, got {count}")
        for _ in range(count):
            self.banks.append(self._new_bank())

    def remove_extra_banks(self) -> None:
        """Drop all donated banks, keeping the original one (unfusion)."""
        del self.banks[1:]

    def flush(self) -> None:
        """Invalidate every entry in every bank.

        Only the tag and confidence columns are reset; payload columns
        keep their stale contents, which no lookup can reach.
        """
        for bank in self.banks:
            bank[0][:] = [INVALID_TAG] * self.sets
            bank[-1][:] = [0] * self.sets

    # ------------------------------------------------------------------
    # Lookup / allocation
    # ------------------------------------------------------------------

    def find(self, index: int, tag: int) -> Bank | None:
        """Return the bank whose entry at ``index`` matches, or None."""
        for bank in self.banks:
            if bank[0][index] == tag:
                return bank
        return None

    def find_or_victim(self, index: int, tag: int) -> tuple[Bank, bool]:
        """Return ``(bank, hit)``.

        On a miss the returned bank holds the replacement victim at
        this index: an invalid entry if one exists, otherwise the entry
        with the lowest confidence (low-confidence entries are the
        cheapest to sacrifice; a confident entry is presumably still
        earning), the first bank winning ties.  The caller is
        responsible for rewriting the victim's fields.
        """
        victim: Bank | None = None
        for bank in self.banks:
            t = bank[0][index]
            if t == tag:
                return bank, True
            if t == INVALID_TAG:
                if victim is None or victim[0][index] != INVALID_TAG:
                    victim = bank
            elif victim is None or (
                victim[0][index] != INVALID_TAG
                and bank[-1][index] < victim[-1][index]
            ):
                victim = bank
        assert victim is not None  # there is always at least one bank
        return victim, False

    def rows(self) -> Iterator[tuple[int, ...]]:
        """One tuple per entry, bank-major, in declared field order."""
        for bank in self.banks:
            yield from zip(*bank)
