"""E-Stride: the enhanced stride *value* predictor from EVES.

Tracks, per static load, the last committed value and the stride
between consecutive values.  Predictions account for in-flight
instances of the same PC (``value = last + stride * (1 + inflight)``),
which is the "enhancement" that makes stride prediction work in a deep
pipeline.  Confidence uses forward probabilistic counters with
stride-magnitude-aware probabilities: EVES builds confidence more
slowly for strides of large magnitude because a wrong large stride is
costlier to confirm; we keep the simpler published shape of a deep FPC
(effective ~64 observations for non-zero strides, ~16 for zero stride,
i.e. last-value behaviour is cheaper to trust).
"""

from __future__ import annotations

from repro.common.bits import mask, sign_extend, truncate
from repro.common.fpc import FpcVector
from repro.common.hashing import pc_index, pc_tag
from repro.common.rng import DeterministicRng
from repro.predictors.table import INVALID_TAG, BankedTable
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_VALUE_MASK = mask(64)
_STRIDE_BITS = 64

#: Deep FPC used for non-zero strides (effective 64 observations).
NONZERO_FPC = FpcVector.from_ratios(["1", "1", "1/2", "1/4", "1/8", "1/16", "1/32"])
#: Shallower effective confidence for zero strides (last-value case).
ZERO_FPC = FpcVector.from_ratios(["1", "1", "1/2", "1/2", "1/2", "1/4", "1/8"])
CONFIDENCE_THRESHOLD = 7

#: Entry storage: tag + 64b value + 64b stride + 3b conf = 145 bits.
#: (Seznec's E-Stride keeps a full-width stride; a truncated stride
#: would build confidence on wrapped deltas and mispredict forever.)
BITS_PER_ENTRY = _TAG_BITS + 64 + _STRIDE_BITS + 3


#: Entry fields in column order, with their reset values; the stride
#: is stored as 64-bit two's complement.
_FIELDS = (
    ("tag", INVALID_TAG), ("last_value", 0), ("stride", 0), ("confidence", 0),
)


class EStridePredictor:
    """The stride component of EVES."""

    name = "e-stride"
    kind = PredictionKind.VALUE

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        self.base_entries = entries
        self._rng = (rng or DeterministicRng(0)).derive(self.name)
        self._table = BankedTable(entries, _FIELDS)
        # EVES never fuses, so the table keeps its single bank.
        self._bank0 = self._table.banks[0]
        self._zero_probs = tuple(float(p) for p in ZERO_FPC.probabilities)
        self._nonzero_probs = tuple(
            float(p) for p in NONZERO_FPC.probabilities
        )

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        index = pc_index(pc, self._table.index_bits)
        tag = pc_tag(pc, _TAG_BITS)
        tags, last_values, strides, confs = self._bank0
        if tags[index] != tag or confs[index] < CONFIDENCE_THRESHOLD:
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
        tags, last_values, strides, confs = self._bank0
        if tags[index] == tag:
            observed = truncate(value - last_values[index], _STRIDE_BITS)
            stride = strides[index]
            if observed == stride:
                probs = self._zero_probs if stride == 0 else self._nonzero_probs
                level = confs[index]
                if level < CONFIDENCE_THRESHOLD:
                    p = probs[level]
                    if p >= 1.0 or self._rng.coin(p):
                        confs[index] = level + 1
            else:
                strides[index] = observed
                confs[index] = 0
            last_values[index] = value
            return
        tags[index] = tag
        last_values[index] = value
        strides[index] = 0
        confs[index] = 0

    def storage_bits(self) -> int:
        return self.base_entries * BITS_PER_ENTRY
