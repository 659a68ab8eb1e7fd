"""Probe and prediction records shared by all predictors.

The pipeline probes predictors at *fetch* with a :class:`LoadProbe`
(carrying the speculative histories captured at that moment) and trains
them at *execute* with the same probe plus the load's
``(addr, size, value)``, so training indexes the same table entries
prediction used.

Every load builds these records, so they are mutable slots
dataclasses: CPython builds a frozen dataclass with one
``object.__setattr__`` call per field, several times the cost of a
plain slots record.  They are read-only by convention -- a host or
component never changes a record it is handed -- and
``tests/test_record_immutability.py`` enforces that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PredictionKind(enum.Enum):
    """Whether a component predicts the load's value or its address."""

    VALUE = "value"
    ADDRESS = "address"


@dataclass(slots=True)
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
    #: The load's index among the trace's predictable loads during a
    #: whole-trace timing run (context-aware components look its
    #: precomputed table hashes up by it); ``-1`` anywhere else.
    ordinal: int = -1


@dataclass(slots=True)
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
