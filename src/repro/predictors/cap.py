"""CAP -- Context (aware) Address Prediction (Section III-B.2).

The DLVP reference design: one tagged table indexed by a hash of the
load PC and the *load path* history.  Entry: 14-bit tag, 49-bit virtual
address, 2-bit FPC confidence, 2-bit load size -- 67 bits, the
cheapest of the four.  Confidence needs only 4 effective observations,
the lowest bar of all components, because a (path, PC) pair pins the
address very precisely.

Training on load completion writes tag/address/size; confidence climbs
only when all of them match the existing entry.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import fold_bits_np, mask, shr_np
from repro.common.hashing import mix64, mix64_np
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import CAP_CONFIDENCE_THRESHOLD, CAP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_TAG_MASK = mask(_TAG_BITS)
_ADDR_BITS = 49
_ADDR_MASK = mask(_ADDR_BITS)


#: Entry fields in column order, with their reset values.
_FIELDS = (
    ("tag", INVALID_TAG), ("addr", 0), ("size_log2", 0), ("confidence", 0),
)


class CapPredictor(ComponentPredictor):
    """Context-aware address predictor (DLVP)."""

    name = "cap"
    kind = PredictionKind.ADDRESS
    context_aware = True
    bits_per_entry = 67  # 14 tag + 49 addr + 2 conf + 2 size
    fpc_vector = CAP_FPC
    confidence_threshold = CAP_CONFIDENCE_THRESHOLD

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._table = BankedTable(entries, _FIELDS)
        if not self._table.index_bits:
            # The hash folds down to the index bits; it needs one.
            raise ValueError(f"CAP needs at least 2 entries, got {entries}")
        # Stable bank list and bank 0; see LvpPredictor.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]
        self._index_bits = self._table.index_bits
        self._index_mask = mask(self._index_bits)
        #: Everything the (index, tag) hashes depend on besides the
        #: load's own inputs: loads hash alike under an equal key.
        self.geometry_key = ("cap", self._index_bits)
        # One-entry hash memo; see _row.
        self._hash_memo_key: tuple[int, int] | None = None
        self._hash_memo: tuple[int, int] = (0, 0)
        # Per-load hashes of the bound trace; see _row.
        self._rows: list | None = None

    def _tables(self) -> list:
        return [self._table]

    def _hashes(self, pc: int, load_path: int) -> tuple[int, int]:
        """``(index, tag)`` of one load: the scalar reference.

        The index folds ``pc >> 2``, ``pc >> (2 + bits)`` and the load
        path history down to ``bits`` bits (folding is XOR-linear, so
        one fold of their XOR equals the XOR of their folds); the tag
        folds ``pc >> 2`` and the mixed load path down to 14.
        """
        bits = self._index_bits
        imask = self._index_mask
        pcx = pc >> 2
        v = pcx ^ (pc >> (2 + bits)) ^ load_path
        while v > imask:
            v = (v & imask) ^ (v >> bits)
        t = pcx ^ mix64(load_path + 0x9E37)
        while t > _TAG_MASK:
            t = (t & _TAG_MASK) ^ (t >> _TAG_BITS)
        return v, t

    def hash_columns(
        self, pc: np.ndarray, load_path: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(index, tag)`` columns over uint64 load columns,
        bit-identical to :meth:`_hashes` on every load."""
        bits = self._index_bits
        pcx = shr_np(pc, 2)
        v = pcx ^ shr_np(pc, 2 + bits) ^ fold_bits_np(load_path, bits)
        index = fold_bits_np(v, bits)
        tag = fold_bits_np(
            pcx ^ mix64_np(load_path + np.uint64(0x9E37)), _TAG_BITS
        )
        return index, tag

    def _hash_rows(self, histories) -> list:
        """One ``(index, tag)`` row per load of ``histories`` (a
        :class:`~repro.branch.history.LoadHistories`)."""
        index, tag = self.hash_columns(histories.pc, histories.load_path)
        return list(zip(index.tolist(), tag.tolist()))

    def _row(self, pc: int, ordinal: int, load_path: int) -> tuple[int, int]:
        """``(index, tag)`` of one load: looked up by ordinal in the
        bound trace's rows during a whole-trace timing run,
        computed by :meth:`_hashes` behind a one-entry memo anywhere
        else (a load's ``train`` and ``penalize`` re-hash with the
        load path its ``predict`` saw).  Bit-identical either way."""
        rows = self._rows
        if rows is not None and ordinal >= 0:
            return rows[ordinal]
        key = (pc, load_path)
        if key != self._hash_memo_key:
            self._hash_memo_key = key
            self._hash_memo = self._hashes(*key)
        return self._hash_memo

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        rows = self._rows  # _row's ordinal lookup, inlined on the hot path
        index, tag = (
            rows[ordinal] if rows is not None and ordinal >= 0
            else self._row(pc, ordinal, load_path)
        )
        if len(self._banks) == 1:
            tags, addrs, sizes, confs = self._bank0
            if tags[index] != tag:
                return None
        else:
            bank = self._table.find(index, tag)
            if bank is None:
                return None
            tags, addrs, sizes, confs = bank
        if confs[index] < self.confidence_threshold:
            return None
        return addrs[index] << 2 | sizes[index]

    def penalize(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Reset confidence after a wrong speculative value (the
        address may still match when an in-flight store conflicted)."""
        index, tag = self._row(pc, ordinal, load_path)
        bank = self._table.find(index, tag)
        if bank is not None:
            bank[-1][index] = 0

    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        rows = self._rows  # _row's ordinal lookup, inlined on the hot path
        index, tag = (
            rows[ordinal] if rows is not None and ordinal >= 0
            else self._row(pc, ordinal, load_path)
        )
        addr &= _ADDR_MASK
        size_log2 = size.bit_length() - 1
        if len(self._banks) == 1:
            tags, addrs, sizes, confs = self._bank0
            hit = tags[index] == tag
        else:
            (tags, addrs, sizes, confs), hit = (
                self._table.find_or_victim(index, tag)
            )
        if hit and addrs[index] == addr and sizes[index] == size_log2:
            self._bump_confidence(confs, index)
            return
        tags[index] = tag
        addrs[index] = addr
        sizes[index] = size_log2
        confs[index] = 0
