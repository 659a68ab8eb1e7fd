"""Probe/outcome/prediction records shared by all predictors.

The pipeline probes predictors at *fetch* with a :class:`LoadProbe`
(carrying the speculative histories captured at that moment) and trains
them at *execute* with a :class:`LoadOutcome` (carrying the same
histories, so training indexes the same table entries prediction used).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PredictionKind(enum.Enum):
    """Whether a component predicts the load's value or its address."""

    VALUE = "value"
    ADDRESS = "address"


@dataclass(frozen=True, slots=True)
class LoadProbe:
    """Everything a predictor may look at when a load is fetched."""

    pc: int
    direction_history: int = 0
    path_history: int = 0
    load_path_history: int = 0
    #: Number of older in-flight (fetched, not yet executed) dynamic
    #: instances of the same static load.  SAP advances its stride by
    #: this count, the enhancement the paper borrows from EVES.
    inflight_same_pc: int = 0
    #: Fetch-time values of the incrementally folded history registers
    #: (``HistorySet.folded_values()``), in slot order.  Empty when the
    #: probe was built without a bound HistorySet; predictors then fold
    #: the raw histories above with the ``fold_bits`` reference instead
    #: (bit-identical results either way).
    folded: tuple[int, ...] = ()
    #: The load's index among the trace's predictable loads during a
    #: whole-trace timing run (context-aware components look its
    #: precomputed table hashes up by it); ``-1`` anywhere else.
    ordinal: int = -1


@dataclass(frozen=True, slots=True)
class LoadOutcome:
    """Training record produced when a load executes."""

    pc: int
    addr: int
    size: int
    value: int
    direction_history: int = 0
    path_history: int = 0
    load_path_history: int = 0
    #: Fetch-time folded registers matching the probe's (training must
    #: index the same table entries prediction used, and value-predictor
    #: training is deferred past younger history pushes).
    folded: tuple[int, ...] = ()
    #: The probe's ordinal (see :attr:`LoadProbe.ordinal`).
    ordinal: int = -1


@dataclass(frozen=True, slots=True)
class Prediction:
    """A single high-confidence prediction from one component.

    ``kind`` decides interpretation: VALUE predictions carry ``value``;
    ADDRESS predictions carry ``addr``/``size`` and must be resolved
    against the data cache (PAQ probe) to produce a speculative value.
    """

    component: str
    kind: PredictionKind
    value: int = 0
    addr: int = 0
    size: int = 0
