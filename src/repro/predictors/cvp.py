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

from repro.common.bits import fold_bits, fold_bits_np, mask, shr_np
from repro.common.hashing import mix64
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import CVP_CONFIDENCE_THRESHOLD, CVP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import LoadOutcome, LoadProbe, Prediction, PredictionKind

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

    def __init__(self, entries: int, rng: DeterministicRng | None = None,
                 confidence_threshold: int | None = None) -> None:
        super().__init__(entries, rng, confidence_threshold)
        self._banked = [
            BankedTable(size, _FIELDS) for size in split_entries(entries)
        ]
        # Fusion grants and revokes banks on all three tables together,
        # so table 0's (stable) bank list tells whether every table is
        # down to its bank 0, whose columns the fast paths read.
        self._t0_banks = self._banked[0].banks
        self._bank0s = tuple(table.banks[0] for table in self._banked)
        # Hot-path constants (fixed rewiring in hardware).
        self._history_masks = tuple(mask(L) for L in HISTORY_LENGTHS)
        self._index_salts = tuple(
            mix64(t + 3) & mask(self._banked[t].index_bits)
            for t in range(len(self._banked))
        )
        self._tag_salts = tuple(
            mix64((t + 1) << 7) for t in range(len(self._banked))
        )
        self._index_bits_t = tuple(b.index_bits for b in self._banked)
        self._index_masks = tuple(mask(b) for b in self._index_bits_t)
        #: Everything the (index, tag) hashes depend on besides the
        #: load's own inputs: loads hash alike under an equal key.
        self.geometry_key = ("cvp",) + tuple(zip(
            self._index_bits_t, self._history_masks, self._index_salts,
            self._tag_salts,
        ))
        # Incremental-folding fast path (armed by bind_history).
        self._dir_slots: tuple[int, ...] | None = None
        self._path_slots: tuple[int, ...] = ()
        self._min_folded = 0
        # One-entry hash memo; see _hashes_for.
        self._hash_memo_key: tuple[int, int, int] | None = None
        self._hash_memo: list[tuple[int, int]] = []
        # Per-load hashes of the bound front-end stream; see _row.
        self._rows: list | None = None

    def bind_history(self, histories) -> None:
        """Register per-table direction/path folds on the live histories."""
        self._dir_slots = tuple(
            histories.register_direction_fold(L, bits)
            for L, bits in zip(HISTORY_LENGTHS, self._index_bits_t)
        )
        self._path_slots = tuple(
            histories.register_path_fold(bits) for bits in self._index_bits_t
        )
        self._min_folded = max(self._dir_slots + self._path_slots) + 1

    def bind_frontend(self, stream) -> None:
        """Look up this geometry's per-load hashes in ``stream``, a
        :class:`repro.pipeline.frontend.FrontEndStream` (``None``
        releases them)."""
        self._rows = None if stream is None else stream.hash_rows(
            self.geometry_key, self._hash_rows
        )

    def _tables(self) -> list:
        return self._banked

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _index(self, pc: int, table: int, direction: int, path: int) -> int:
        bits = self._banked[table].index_bits
        history = direction & self._history_masks[table]
        value = (pc >> 2) ^ (pc >> (2 + bits))
        value ^= fold_bits(history, bits) ^ fold_bits(path, bits)
        value ^= self._index_salts[table]
        return fold_bits(value, bits)

    def _tag(self, pc: int, table: int, direction: int) -> int:
        history = direction & self._history_masks[table]
        scrambled = ((history ^ self._tag_salts[table])
                     * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return fold_bits((pc >> 2) ^ scrambled, _TAG_BITS)

    def hash_columns(
        self, pc: np.ndarray, direction: np.ndarray, path: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-table ``(index, tag)`` columns over uint64 load columns,
        bit-identical to :meth:`_index` / :meth:`_tag` on every load."""
        out = []
        pcx = shr_np(pc, 2)
        for table in range(len(self._banked)):
            bits = self._index_bits_t[table]
            hist = direction & np.uint64(self._history_masks[table])
            v = (
                pcx
                ^ shr_np(pc, 2 + bits)
                ^ fold_bits_np(hist, bits)
                ^ fold_bits_np(path, bits)
                ^ np.uint64(self._index_salts[table])
            )
            index = fold_bits_np(v, bits)
            scrambled = (hist ^ np.uint64(self._tag_salts[table])) * np.uint64(
                _TAG_SCRAMBLE
            )
            tag = fold_bits_np(pcx ^ scrambled, _TAG_BITS)
            out.append((index, tag))
        return out

    def _hash_rows(self, pc, direction, path, load_path) -> list:
        """One row per load: its per-table ``(index, tag)`` pairs, the
        shape :meth:`_hashes_for` returns."""
        columns = self.hash_columns(pc, direction, path)
        return list(zip(*(
            zip(index.tolist(), tag.tolist()) for index, tag in columns
        )))

    # ------------------------------------------------------------------
    # Prediction / training
    # ------------------------------------------------------------------

    def _fast_hash(
        self, pc: int, table: int, direction: int, folded: tuple[int, ...]
    ) -> tuple[int, int]:
        """(index, tag) from pre-folded registers; bit-identical to
        ``(_index, _tag)`` — the fold terms come from the incremental
        registers and the remaining arithmetic is inlined."""
        bits = self._index_bits_t[table]
        imask = self._index_masks[table]
        v = (pc >> 2) ^ (pc >> (2 + bits)) \
            ^ folded[self._dir_slots[table]] \
            ^ folded[self._path_slots[table]] ^ self._index_salts[table]
        while v > imask:
            v = (v & imask) ^ (v >> bits)
        scrambled = (
            (direction & self._history_masks[table]) ^ self._tag_salts[table]
        ) * _TAG_SCRAMBLE & _MASK64
        t = pc >> 2
        while scrambled:
            t ^= scrambled & _TAG_MASK
            scrambled >>= _TAG_BITS
        while t > _TAG_MASK:
            t = (t & _TAG_MASK) ^ (t >> _TAG_BITS)
        return v, t

    def _hash(self, pc, table, direction, path, folded):
        if self._dir_slots is not None and len(folded) >= self._min_folded:
            return self._fast_hash(pc, table, direction, folded)
        return (
            self._index(pc, table, direction, path),
            self._tag(pc, table, direction),
        )

    def _all_hashes(
        self, pc: int, direction: int, path: int, folded: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        """Per-table ``(index, tag)`` pairs for one load.

        The body is :meth:`_fast_hash` unrolled across the table loop
        with every attribute prebound -- CVP hashing is the hottest
        predictor code on the per-event paths (serve sessions), and
        the per-call overhead of three ``_fast_hash`` invocations per
        probe/train measurably shows.  Falls back to the reference
        ``_index``/``_tag`` pair when the incremental folds are not
        armed; bit-identical either way.
        """
        if self._dir_slots is None or len(folded) < self._min_folded:
            return [
                (
                    self._index(pc, t, direction, path),
                    self._tag(pc, t, direction),
                )
                for t in range(len(self._banked))
            ]
        dir_slots = self._dir_slots
        path_slots = self._path_slots
        index_bits_t = self._index_bits_t
        index_masks = self._index_masks
        index_salts = self._index_salts
        history_masks = self._history_masks
        tag_salts = self._tag_salts
        pcx = pc >> 2
        out = []
        for table in range(len(index_bits_t)):
            bits = index_bits_t[table]
            imask = index_masks[table]
            v = pcx ^ (pc >> (2 + bits)) \
                ^ folded[dir_slots[table]] \
                ^ folded[path_slots[table]] ^ index_salts[table]
            while v > imask:
                v = (v & imask) ^ (v >> bits)
            scrambled = (
                (direction & history_masks[table]) ^ tag_salts[table]
            ) * _TAG_SCRAMBLE & _MASK64
            t = pcx
            while scrambled:
                t ^= scrambled & _TAG_MASK
                scrambled >>= _TAG_BITS
            while t > _TAG_MASK:
                t = (t & _TAG_MASK) ^ (t >> _TAG_BITS)
            out.append((v, t))
        return out

    def _hashes_for(
        self, pc: int, direction: int, path: int, folded: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        """One-entry memo over :meth:`_all_hashes`.

        Serves the streaming paths (serve sessions and the functional
        test oracle): a whole-trace timing run looks its loads'
        hashes up by ordinal instead (see :meth:`_row`).  A load's
        ``train`` re-probes with the exact histories its
        ``predict`` saw (the outcome carries the probe's histories), so
        the second full hash computation per load is a tuple compare
        away.  The folded registers are pure functions of the raw
        history values (the fast path is bit-identical to the
        reference hashes), so ``(pc, direction, path)`` fully keys the
        result; an interleaved in-flight load simply misses and
        recomputes.
        """
        key = (pc, direction, path)
        if key == self._hash_memo_key:
            return self._hash_memo
        hashes = self._all_hashes(pc, direction, path, folded)
        self._hash_memo_key = key
        self._hash_memo = hashes
        return hashes

    def _row(self, record: LoadProbe | LoadOutcome) -> list[tuple[int, int]]:
        """Per-table ``(index, tag)`` pairs of one load: looked up by
        ordinal in the bound front-end stream's rows during a
        whole-trace timing run, hashed from its histories otherwise
        (bit-identical either way)."""
        rows = self._rows
        if rows is not None and record.ordinal >= 0:
            return rows[record.ordinal]
        return self._hashes_for(
            record.pc, record.direction_history, record.path_history,
            record.folded,
        )

    def predict(self, probe: LoadProbe) -> Prediction | None:
        hashes = self._row(probe)
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
                return Prediction(
                    component=self.name, kind=self.kind,
                    value=bank[1][index],
                )
        return None

    def train(self, outcome: LoadOutcome) -> None:
        value = outcome.value & _VALUE_MASK
        hashes = self._row(outcome)
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
