"""LVP -- Last Value Prediction (Section III-B.1 of the paper).

A PC-indexed, tagged table.  Each entry: 14-bit tag, 64-bit value,
3-bit FPC confidence (81 bits total).  Training writes the tag/value
unconditionally; confidence climbs (probabilistically) only while the
observed value matches the stored one and resets to zero otherwise.
High confidence requires 64 effective consecutive observations --
LVP mispredictions are expensive, so the bar is the highest of the
four components.
"""

from __future__ import annotations

from repro.common.bits import mask
from repro.common.hashing import pc_index, pc_tag
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.fpc_vectors import LVP_CONFIDENCE_THRESHOLD, LVP_FPC
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import LoadProbe, Prediction, PredictionKind

_TAG_BITS = 14
_VALUE_MASK = mask(64)


#: Entry fields in column order, with their reset values.
_FIELDS = (("tag", INVALID_TAG), ("value", 0), ("confidence", 0))


class LvpPredictor(ComponentPredictor):
    """Last value predictor."""

    name = "lvp"
    kind = PredictionKind.VALUE
    context_aware = False
    bits_per_entry = 81  # 14 tag + 64 value + 3 confidence
    fpc_vector = LVP_FPC
    confidence_threshold = LVP_CONFIDENCE_THRESHOLD

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._table = BankedTable(entries, _FIELDS)
        # The bank list and bank 0 are stable for the table's lifetime:
        # the one-bank fast paths read bank 0's columns directly.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]
        # (index, tag) memo: both hashes are pure functions of the PC
        # (fixed rewiring in hardware), so one dict probe replaces two
        # hash computations per predict/train.  Grows with the number
        # of *static* load PCs, which is small and bounded per trace.
        self._pc_hashes: dict[int, tuple[int, int]] = {}

    def _tables(self) -> list:
        return [self._table]

    def _hashes(self, pc: int) -> tuple[int, int]:
        cached = self._pc_hashes.get(pc)
        if cached is None:
            cached = self._pc_hashes[pc] = (
                pc_index(pc, self._table.index_bits),
                pc_tag(pc, _TAG_BITS),
            )
        return cached

    def predict(self, probe: LoadProbe) -> Prediction | None:
        index, tag = self._hashes(probe.pc)
        if len(self._banks) == 1:
            tags, values, confs = self._bank0
            if tags[index] != tag:
                return None
        else:
            bank = self._table.find(index, tag)
            if bank is None:
                return None
            tags, values, confs = bank
        if confs[index] < self.confidence_threshold:
            return None
        return Prediction(
            component=self.name, kind=self.kind, value=values[index]
        )

    def train(self, probe: LoadProbe, addr: int, size: int, value: int) -> None:
        index, tag = self._hashes(probe.pc)
        value &= _VALUE_MASK
        if len(self._banks) == 1:
            tags, values, confs = self._bank0
            hit = tags[index] == tag
        else:
            (tags, values, confs), hit = self._table.find_or_victim(index, tag)
        if hit and values[index] == value:
            self._bump_confidence(confs, index)
            return
        tags[index] = tag
        values[index] = value
        confs[index] = 0
