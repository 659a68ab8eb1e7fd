"""CVP -- Context (aware) Value Prediction (Section III-B.2).

A VTAGE-style predictor *without* the untagged last-value base table
(the paper removes it because LVP is a separate component).  Three
tagged tables are indexed by a hash of the load PC and a geometric
sample of the branch path/direction history; entries are LVP-shaped
(14-bit tag, 64-bit value, 3-bit FPC confidence, 81 bits).

All three tables train in parallel, LVP-style (per the paper's text);
prediction comes from the longest-history table that is tag-matched
and confident.  Effective confidence is 16 observations -- context
splits a load's behaviour into per-path streams, so each stream is more
stable and needs less hysteresis than LVP's 64.

The shortest history is 5 branches, matching the paper's Listing-1
walkthrough ("enough iterations to fill the branch history register of
the smallest CVP table (e.g., 5 iterations)").
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold_bits_np, mask, shr_np
from repro.common.hashing import mix64
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import CVP_CONFIDENCE_THRESHOLD, CVP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_TAG_MASK = mask(_TAG_BITS)
_VALUE_MASK = mask(64)
_MASK64 = mask(64)
_TAG_SCRAMBLE = 0x9E3779B97F4A7C15

#: Geometric history lengths (in conditional-branch outcomes) of the
#: three tables, shortest first.
HISTORY_LENGTHS = (5, 13, 32)


#: Entry fields in column order, with their reset values (LVP's shape).
_FIELDS = (("tag", INVALID_TAG), ("value", 0), ("confidence", 0))


def split_entries(total: int) -> tuple[int, int, int]:
    """Split a total entry budget across the three tables.

    The paper counts CVP size as the *sum* of its three tables
    (footnote 3).  We give the short-history table half the budget and
    the two longer tables a quarter each, keeping every table a power
    of two: 1024 -> (512, 256, 256).
    """
    if total < 4 or total & (total - 1):
        raise ValueError(
            f"CVP total entries must be a power of two >= 4, got {total}"
        )
    return total // 2, total // 4, total // 4


class CvpPredictor(ComponentPredictor):
    """Context-aware value predictor (VTAGE minus the base table)."""

    name = "cvp"
    kind = PredictionKind.VALUE
    context_aware = True
    bits_per_entry = 81  # same shape as LVP
    fpc_vector = CVP_FPC
    confidence_threshold = CVP_CONFIDENCE_THRESHOLD

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._banked = [
            BankedTable(size, _FIELDS) for size in split_entries(entries)
        ]
        if not all(table.index_bits for table in self._banked):
            # A table's hash folds down to its index bits; it needs one.
            raise ValueError(
                f"CVP needs at least 2 entries per table (8 in total), "
                f"got {entries}"
            )
        # Fusion grants and revokes banks on all three tables together,
        # so table 0's (stable) bank list tells whether every table is
        # down to its bank 0, whose columns the fast paths read.
        self._t0_banks = self._banked[0].banks
        self._bank0s = tuple(table.banks[0] for table in self._banked)
        # Per-table hash constants (fixed rewiring in hardware), in
        # table order: index bits, history mask, index salt, tag salt.
        tables = tuple(
            (
                table.index_bits, mask(length),
                mix64(t + 3) & mask(table.index_bits), mix64((t + 1) << 7),
            )
            for t, (table, length) in enumerate(
                zip(self._banked, HISTORY_LENGTHS)
            )
        )
        #: Everything the (index, tag) hashes depend on besides the
        #: load's own inputs: loads hash alike under an equal key.
        self.geometry_key = ("cvp",) + tables
        self._hash_consts = tuple(
            (bits, mask(bits), hmask, isalt, tsalt)
            for bits, hmask, isalt, tsalt in tables
        )
        # One-entry hash memo; see _row.
        self._hash_memo_key: tuple[int, int, int] | None = None
        self._hash_memo: list[tuple[int, int]] = []
        # Per-load hashes of the bound trace; see _row.
        self._rows: list | None = None

    def _tables(self) -> list:
        return self._banked

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _hashes(
        self, pc: int, direction: int, path: int
    ) -> list[tuple[int, int]]:
        """Per-table ``(index, tag)`` pairs of one load: the scalar
        reference.

        A table's index folds ``pc >> 2``, ``pc >> (2 + bits)``, its
        direction-history sample, the branch path history and its salt
        down to ``bits`` bits; its tag folds ``pc >> 2`` and the
        scrambled history sample down to 14.  Folding is XOR-linear, so
        one fold of the terms' XOR equals the XOR of their folds.
        """
        pcx = pc >> 2
        out = []
        for bits, imask, hmask, isalt, tsalt in self._hash_consts:
            history = direction & hmask
            v = pcx ^ (pc >> (2 + bits)) ^ history ^ path ^ isalt
            while v > imask:
                v = (v & imask) ^ (v >> bits)
            t = pcx ^ ((history ^ tsalt) * _TAG_SCRAMBLE & _MASK64)
            while t > _TAG_MASK:
                t = (t & _TAG_MASK) ^ (t >> _TAG_BITS)
            out.append((v, t))
        return out

    def hash_columns(
        self, pc: np.ndarray, direction: np.ndarray, path: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-table ``(index, tag)`` columns over uint64 load columns,
        bit-identical to :meth:`_hashes` on every load."""
        out = []
        pcx = shr_np(pc, 2)
        for bits, _, hmask, isalt, tsalt in self._hash_consts:
            hist = direction & np.uint64(hmask)
            v = (
                pcx
                ^ shr_np(pc, 2 + bits)
                ^ fold_bits_np(hist, bits)
                ^ fold_bits_np(path, bits)
                ^ np.uint64(isalt)
            )
            index = fold_bits_np(v, bits)
            scrambled = (hist ^ np.uint64(tsalt)) * np.uint64(_TAG_SCRAMBLE)
            tag = fold_bits_np(pcx ^ scrambled, _TAG_BITS)
            out.append((index, tag))
        return out

    def _hash_rows(self, histories) -> list:
        """One row per load of ``histories`` (a
        :class:`~repro.branch.history.LoadHistories`): its per-table
        ``(index, tag)`` pairs, the shape :meth:`_hashes` returns."""
        columns = self.hash_columns(
            histories.pc, histories.direction, histories.path
        )
        return list(zip(*(
            zip(index.tolist(), tag.tolist()) for index, tag in columns
        )))

    # ------------------------------------------------------------------
    # Prediction / training
    # ------------------------------------------------------------------

    def _row(
        self, pc: int, ordinal: int, direction: int, path: int
    ) -> list[tuple[int, int]]:
        """Per-table ``(index, tag)`` pairs of one load.

        A whole-trace timing run looks them up by ordinal in the bound
        trace's rows.  Anywhere else (serve sessions, single
        RPCs, the test oracles) :meth:`_hashes` computes them behind a
        one-entry memo: a load's ``train`` re-probes with the exact
        histories its ``predict`` saw, so its second hash is a tuple
        compare away, and an interleaved in-flight load simply misses
        and recomputes.  Bit-identical either way.
        """
        rows = self._rows
        if rows is not None and ordinal >= 0:
            return rows[ordinal]
        key = (pc, direction, path)
        if key != self._hash_memo_key:
            self._hash_memo_key = key
            self._hash_memo = self._hashes(*key)
        return self._hash_memo

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        rows = self._rows  # _row's ordinal lookup, inlined on the hot path
        hashes = (
            rows[ordinal] if rows is not None and ordinal >= 0
            else self._row(pc, ordinal, direction, path)
        )
        one_bank = len(self._t0_banks) == 1
        for table in range(len(hashes) - 1, -1, -1):
            index, tag = hashes[table]
            if one_bank:
                bank = self._bank0s[table]
                if bank[0][index] != tag:
                    continue
            else:
                bank = self._banked[table].find(index, tag)
                if bank is None:
                    continue
            if bank[2][index] >= self.confidence_threshold:
                return bank[1][index]
        return None

    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        value &= _VALUE_MASK
        rows = self._rows  # _row's ordinal lookup, inlined on the hot path
        hashes = (
            rows[ordinal] if rows is not None and ordinal >= 0
            else self._row(pc, ordinal, direction, path)
        )
        one_bank = len(self._t0_banks) == 1
        for table, (index, tag) in enumerate(hashes):
            if one_bank:
                tags, values, confs = self._bank0s[table]
                hit = tags[index] == tag
            else:
                (tags, values, confs), hit = (
                    self._banked[table].find_or_victim(index, tag)
                )
            if hit and values[index] == value:
                self._bump_confidence(confs, index)
                continue
            tags[index] = tag
            values[index] = value
            confs[index] = 0
