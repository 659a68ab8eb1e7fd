"""LAP -- Last Address Prediction (paper footnote 1).

The paper's authors "analyzed several other predictors, like last
address and stride value predictors", and found they showed "limited
or no benefit in the presence of the four selected predictors".  LAP
is implemented here so that finding can be reproduced (see
``benchmarks/test_ablation_footnote1.py``).

LAP predicts that a static load repeats its previous *address* and
resolves the value through the D-cache probe, exactly like SAP with the
stride forced to zero -- which is why it is redundant: every load LAP
can cover, SAP covers with a learned zero stride, and SAP additionally
covers non-zero strides.  Entry: 14-bit tag, 49-bit address, 2-bit FPC
confidence, 2-bit size (67 bits, like CAP).
"""

from __future__ import annotations

from repro.common.bits import mask
from repro.common.fpc import FpcVector
from repro.common.hashing import pc_index, pc_tag
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import LoadProbe, Prediction, PredictionKind

_TAG_BITS = 14
_ADDR_MASK = mask(49)

#: Same effective confidence as SAP (9 observations): the pattern class
#: is the same (address stability), only the stride freedom differs.
LAP_FPC = FpcVector.from_ratios(["1", "1/4", "1/4"])
LAP_CONFIDENCE_THRESHOLD = 3


#: Entry fields in column order, with their reset values.
_FIELDS = (
    ("tag", INVALID_TAG), ("addr", 0), ("size_log2", 0), ("confidence", 0),
)


class LapPredictor(ComponentPredictor):
    """Last address predictor (SAP restricted to stride zero)."""

    name = "lap"
    kind = PredictionKind.ADDRESS
    context_aware = False
    bits_per_entry = 67
    fpc_vector = LAP_FPC
    confidence_threshold = LAP_CONFIDENCE_THRESHOLD
    rank = 1  # behind SAP among context-agnostic address predictors

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._table = BankedTable(entries, _FIELDS)
        # Stable bank list and bank 0; see LvpPredictor.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]

    def _tables(self) -> list:
        return [self._table]

    def predict(self, probe: LoadProbe) -> Prediction | None:
        index = pc_index(probe.pc, self._table.index_bits)
        tag = pc_tag(probe.pc, _TAG_BITS)
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
            component=self.name, kind=self.kind,
            addr=addrs[index], size=1 << sizes[index],
        )

    def train(self, probe: LoadProbe, addr: int, size: int, value: int) -> None:
        index = pc_index(probe.pc, self._table.index_bits)
        tag = pc_tag(probe.pc, _TAG_BITS)
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

    def penalize(
        self, probe: LoadProbe, addr: int, size: int, value: int
    ) -> None:
        index = pc_index(probe.pc, self._table.index_bits)
        bank = self._table.find(index, pc_tag(probe.pc, _TAG_BITS))
        if bank is not None:
            bank[-1][index] = 0
