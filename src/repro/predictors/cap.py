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

from repro.common.bits import fold_bits, fold_bits_np, mask, shr_np
from repro.common.hashing import mix64, mix64_np
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import CAP_CONFIDENCE_THRESHOLD, CAP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import LoadOutcome, LoadProbe, Prediction, PredictionKind

_TAG_BITS = 14
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

    def __init__(self, entries: int, rng: DeterministicRng | None = None,
                 confidence_threshold: int | None = None) -> None:
        super().__init__(entries, rng, confidence_threshold)
        self._table = BankedTable(entries, _FIELDS)
        # Stable bank list and bank 0; see LvpPredictor.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]
        #: Everything the (index, tag) hashes depend on besides the
        #: load's own inputs: loads hash alike under an equal key.
        self.geometry_key = ("cap", self._table.index_bits)
        # Incremental-folding fast path (armed by bind_history).
        self._path_slot: int | None = None
        self._min_folded = 0
        # One-entry hash memo; see _hashes_for.
        self._hash_memo_key: tuple[int, int] | None = None
        self._hash_memo: tuple[int, int] = (0, 0)
        # Per-load hashes of the bound front-end stream; see _row.
        self._rows: list | None = None

    def bind_history(self, histories) -> None:
        """Register the load-path fold on the live histories."""
        self._path_slot = histories.register_load_path_fold(
            self._table.index_bits
        )
        self._min_folded = self._path_slot + 1

    def bind_frontend(self, stream) -> None:
        """Look up this geometry's per-load hashes in ``stream``, a
        :class:`repro.pipeline.frontend.FrontEndStream` (``None``
        releases them)."""
        self._rows = None if stream is None else stream.hash_rows(
            self.geometry_key, self._hash_rows
        )

    def _tables(self) -> list:
        return [self._table]

    def _index(self, pc: int, load_path: int) -> int:
        bits = self._table.index_bits
        value = (pc >> 2) ^ (pc >> (2 + bits)) ^ fold_bits(load_path, bits)
        return fold_bits(value, bits)

    def _tag(self, pc: int, load_path: int) -> int:
        return fold_bits((pc >> 2) ^ mix64(load_path + 0x9E37), _TAG_BITS)

    def hash_columns(
        self, pc: np.ndarray, load_path: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(index, tag)`` columns over uint64 load columns,
        bit-identical to :meth:`_index` / :meth:`_tag` on every load."""
        bits = self._table.index_bits
        pcx = shr_np(pc, 2)
        v = pcx ^ shr_np(pc, 2 + bits) ^ fold_bits_np(load_path, bits)
        index = fold_bits_np(v, bits)
        tag = fold_bits_np(
            pcx ^ mix64_np(load_path + np.uint64(0x9E37)), _TAG_BITS
        )
        return index, tag

    def _hash_rows(self, pc, direction, path, load_path) -> list:
        """One ``(index, tag)`` row per load."""
        index, tag = self.hash_columns(pc, load_path)
        return list(zip(index.tolist(), tag.tolist()))

    def _hash(
        self, pc: int, load_path: int, folded: tuple[int, ...]
    ) -> tuple[int, int]:
        """(index, tag), via the pre-folded load-path register when the
        probe carries one; bit-identical to ``(_index, _tag)``."""
        slot = self._path_slot
        if slot is None or len(folded) < self._min_folded:
            return self._index(pc, load_path), self._tag(pc, load_path)
        bits = self._table.index_bits
        imask = (1 << bits) - 1
        v = (pc >> 2) ^ (pc >> (2 + bits)) ^ folded[slot]
        while v > imask:
            v = (v & imask) ^ (v >> bits)
        tmask = (1 << _TAG_BITS) - 1
        t = (pc >> 2) ^ mix64(load_path + 0x9E37)
        while t > tmask:
            t = (t & tmask) ^ (t >> _TAG_BITS)
        return v, t

    def _hashes_for(
        self, pc: int, load_path: int, folded: tuple[int, ...]
    ) -> tuple[int, int]:
        """One-entry memo over :meth:`_hash`.

        Serves the streaming paths (serve sessions and the functional
        test oracle): a whole-trace timing run looks its loads'
        hashes up by ordinal instead (see :meth:`_row`).  A load's
        ``train`` (and ``penalize``) re-hashes with the exact load-path
        history its ``predict`` saw, so the repeat computations per
        load reduce to a tuple compare.  The folded
        register is a pure function of the raw load-path value (the
        fast path is bit-identical to the reference hashes), so
        ``(pc, load_path)`` fully keys the result; an interleaved
        in-flight load simply misses and recomputes.
        """
        key = (pc, load_path)
        if key == self._hash_memo_key:
            return self._hash_memo
        hashed = self._hash(pc, load_path, folded)
        self._hash_memo_key = key
        self._hash_memo = hashed
        return hashed

    def _row(self, record: LoadProbe | LoadOutcome) -> tuple[int, int]:
        """``(index, tag)`` of one load: looked up by ordinal in the
        bound front-end stream's rows during a whole-trace timing run,
        hashed from its load-path history otherwise (bit-identical
        either way)."""
        rows = self._rows
        if rows is not None and record.ordinal >= 0:
            return rows[record.ordinal]
        return self._hashes_for(
            record.pc, record.load_path_history, record.folded
        )

    def predict(self, probe: LoadProbe) -> Prediction | None:
        index, tag = self._row(probe)
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
        return Prediction(
            component=self.name,
            kind=self.kind,
            addr=addrs[index],
            size=1 << sizes[index],
        )

    def penalize(self, outcome: LoadOutcome) -> None:
        """Reset confidence after a wrong speculative value (the
        address may still match when an in-flight store conflicted)."""
        index, tag = self._row(outcome)
        bank = self._table.find(index, tag)
        if bank is not None:
            bank[-1][index] = 0

    def train(self, outcome: LoadOutcome) -> None:
        index, tag = self._row(outcome)
        addr = outcome.addr & _ADDR_MASK
        size_log2 = outcome.size.bit_length() - 1
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
