"""SVP -- Stride Value Prediction (paper footnote 1).

The second "also analyzed" predictor: it treats the *values* of a
static load as a strided sequence (LVP is the stride-zero special
case).  The paper excluded it because "we observed very limited
presence of stride loaded values (though did find strided values for
other instruction types such as arithmetic instructions)" -- load
results in real programs rarely form arithmetic sequences.  The
ablation benchmark reproduces that redundancy.

Entry: 14-bit tag, 64-bit last value, 16-bit stride, 3-bit FPC
confidence (97 bits).  Like SAP and E-Stride, predictions advance the
stride by the number of in-flight instances of the PC.
"""

from __future__ import annotations

from repro.common.bits import mask, sign_extend, truncate
from repro.common.fpc import FpcVector
from repro.common.hashing import pc_index, pc_tag
from repro.common.rng import DeterministicRng
from repro.predictors.base import ComponentPredictor
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_VALUE_MASK = mask(64)
_STRIDE_BITS = 16

#: Value mispredictions are as costly as LVP's, so the bar matches
#: LVP's 64 effective observations.
SVP_FPC = FpcVector.from_ratios(
    ["1/2", "1/2", "1/4", "1/8", "1/16", "1/16", "1/16"]
)
SVP_CONFIDENCE_THRESHOLD = 7


#: Entry fields in column order, with their reset values; the stride
#: is stored as 16-bit two's complement.
_FIELDS = (
    ("tag", INVALID_TAG), ("last_value", 0), ("stride", 0), ("confidence", 0),
)


class SvpPredictor(ComponentPredictor):
    """Stride value predictor (LVP generalized to non-zero strides)."""

    name = "svp"
    kind = PredictionKind.VALUE
    context_aware = False
    bits_per_entry = 97  # 14 tag + 64 value + 16 stride + 3 conf
    fpc_vector = SVP_FPC
    confidence_threshold = SVP_CONFIDENCE_THRESHOLD
    rank = 1  # behind LVP among context-agnostic value predictors

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(entries, rng)
        self._table = BankedTable(entries, _FIELDS)
        # Stable bank list and bank 0; see LvpPredictor.
        self._banks = self._table.banks
        self._bank0 = self._banks[0]

    def _tables(self) -> list:
        return [self._table]

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        index = pc_index(pc, self._table.index_bits)
        tag = pc_tag(pc, _TAG_BITS)
        if len(self._banks) == 1:
            tags, last_values, strides, confs = self._bank0
            if tags[index] != tag:
                return None
        else:
            bank = self._table.find(index, tag)
            if bank is None:
                return None
            tags, last_values, strides, confs = bank
        if confs[index] < self.confidence_threshold:
            return None
        stride = sign_extend(strides[index], _STRIDE_BITS)
        return (last_values[index] + stride * (1 + inflight)) & _VALUE_MASK

    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        index = pc_index(pc, self._table.index_bits)
        tag = pc_tag(pc, _TAG_BITS)
        value &= _VALUE_MASK
        if len(self._banks) == 1:
            tags, last_values, strides, confs = self._bank0
            hit = tags[index] == tag
        else:
            (tags, last_values, strides, confs), hit = (
                self._table.find_or_victim(index, tag)
            )
        if hit:
            last = last_values[index]
            observed = truncate(value - last, _STRIDE_BITS)
            full_delta = (value - last) & _VALUE_MASK
            # Confidence only grows when the full-width delta is
            # faithfully representable; a wrapped stride would grow
            # confident on deltas it cannot re-create.
            representable = (
                sign_extend(observed, _STRIDE_BITS) % (1 << 64)
            ) == full_delta
            if observed == strides[index] and representable:
                self._bump_confidence(confs, index)
            else:
                strides[index] = observed
                confs[index] = 0
            last_values[index] = value
            return
        tags[index] = tag
        last_values[index] = value
        strides[index] = 0
        confs[index] = 0
