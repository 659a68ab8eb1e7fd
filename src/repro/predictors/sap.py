"""SAP -- Stride Address Prediction (Section III-B.1 of the paper).

A PC-indexed, tagged table whose entries track the last load address
and the address delta (stride, possibly zero) between consecutive
dynamic instances.  Entry: 14-bit tag, 49-bit last virtual address,
2-bit FPC confidence, 10-bit signed stride, 2-bit load size
(log2 bytes) -- 77 bits total.

Once confident (9 effective observations), SAP predicts the next
address as ``last_address + stride * (1 + inflight)``, where
``inflight`` counts older in-flight instances of the same static load
-- the EVES-style enhancement the paper adopts, compensating for the
training lag of a pipelined machine.  The predicted address goes to the
PAQ, which probes the D-cache for the speculative value.
"""

from __future__ import annotations

from repro.common.bits import mask, sign_extend, truncate
from repro.common.hashing import pc_index, pc_tag
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import SAP_CONFIDENCE_THRESHOLD, SAP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_ADDR_BITS = 49
_STRIDE_BITS = 10
_ADDR_MASK = mask(_ADDR_BITS)


#: Entry fields in column order, with their reset values; the stride
#: is stored as 10-bit two's complement.
_FIELDS = (
    ("tag", INVALID_TAG), ("last_addr", 0), ("stride", 0), ("size_log2", 0),
    ("confidence", 0),
)


class SapPredictor(ComponentPredictor):
    """Stride address predictor."""

    name = "sap"
    kind = PredictionKind.ADDRESS
    context_aware = False
    bits_per_entry = 77  # 14 tag + 49 addr + 2 conf + 10 stride + 2 size
    fpc_vector = SAP_FPC
    confidence_threshold = SAP_CONFIDENCE_THRESHOLD

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._table = BankedTable(entries, _FIELDS)
        # Stable bank list and bank 0; see LvpPredictor.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]
        # (index, tag) memo keyed by static load PC; see LvpPredictor.
        self._pc_hashes: dict[int, tuple[int, int]] = {}

    def _tables(self) -> list:
        return [self._table]

    @property
    def geometry_key(self) -> tuple:
        """Everything the (index, tag) hashes depend on besides the
        PC: loads hash alike under an equal key (LVP and SAP hash
        alike)."""
        return ("pc", self._table.index_bits)

    def _hashes(self, pc: int) -> tuple[int, int]:
        """(index, tag) memo -- both are pure functions of the PC."""
        cached = self._pc_hashes.get(pc)
        if cached is None:
            cached = self._pc_hashes[pc] = (
                pc_index(pc, self._table.index_bits),
                pc_tag(pc, _TAG_BITS),
            )
        return cached

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        index, tag = self._pc_hashes.get(pc) or self._hashes(pc)
        if len(self._banks) == 1:
            tags, last_addrs, strides, sizes, confs = self._bank0
            if tags[index] != tag:
                return None
        else:
            bank = self._table.find(index, tag)
            if bank is None:
                return None
            tags, last_addrs, strides, sizes, confs = bank
        if confs[index] < self.confidence_threshold:
            return None
        stride = sign_extend(strides[index], _STRIDE_BITS)
        addr = (last_addrs[index] + stride * (1 + inflight)) & _ADDR_MASK
        return addr << 2 | sizes[index]

    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        index, tag = self._pc_hashes.get(pc) or self._hashes(pc)
        addr &= _ADDR_MASK
        if len(self._banks) == 1:
            tags, last_addrs, strides, sizes, confs = self._bank0
            hit = tags[index] == tag
        else:
            (tags, last_addrs, strides, sizes, confs), hit = (
                self._table.find_or_victim(index, tag)
            )
        if hit:
            # Hardware compares in the 10-bit stride domain: the stored
            # field against the new delta's low bits.
            new_stride = truncate(addr - last_addrs[index], _STRIDE_BITS)
            if new_stride == strides[index]:
                self._bump_confidence(confs, index)
            else:
                strides[index] = new_stride
                confs[index] = 0
            last_addrs[index] = addr
            sizes[index] = _size_log2(size)
            return
        tags[index] = tag
        last_addrs[index] = addr
        strides[index] = 0
        sizes[index] = _size_log2(size)
        confs[index] = 0

    def penalize(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Reset confidence after a wrong speculative value.

        The address may have matched (conflicting store), so training
        alone would keep the entry confident and re-flush next time.
        """
        index, tag = self._hashes(pc)
        bank = self._table.find(index, tag)
        if bank is not None:
            bank[-1][index] = 0

    def invalidate(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Drop the entry for this load (smart-training rule: a correct
        SAP prediction that is not chosen for training would have a
        broken stride anyway, so the composite invalidates it)."""
        index, tag = self._hashes(pc)
        bank = self._table.find(index, tag)
        if bank is not None:
            bank[0][index] = INVALID_TAG
            bank[-1][index] = 0


def _size_log2(size: int) -> int:
    """Encode a 1/2/4/8-byte access size into the 2-bit field."""
    return size.bit_length() - 1
