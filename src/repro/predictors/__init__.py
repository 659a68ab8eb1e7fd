"""The four component load value predictors of Table I / Table IV.

====  =======================  ================  ====================
Name  Predicts                 Context           Reference design
====  =======================  ================  ====================
LVP   load values              agnostic          Lipasti et al. [1]
SAP   load addresses           agnostic          Gonzalez et al. [6]
CVP   load values              aware (br. path)  VTAGE [7], [8]
CAP   load addresses           aware (ld. path)  DLVP [3]
====  =======================  ================  ====================

All four share the probe/prediction types in
:mod:`repro.predictors.types`, use forward probabilistic counters for
confidence (:mod:`repro.predictors.fpc_vectors`), and store their state
in banked tagged tables (:mod:`repro.predictors.table`) so the composite
layer can fuse tables dynamically.
"""

from repro.predictors.base import ComponentPredictor
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.lap import LapPredictor
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor
from repro.predictors.svp import SvpPredictor
from repro.predictors.types import (
    LoadProbe,
    Prediction,
    PredictionKind,
)

#: The paper's four components, in construction order.
COMPONENT_NAMES = ("lvp", "sap", "cvp", "cap")

#: The "also analyzed" predictors of footnote 1 (last address, stride
#: value), available for the redundancy ablation.
EXTRA_COMPONENT_NAMES = ("lap", "svp")


def make_component(name: str, entries: int, rng=None) -> ComponentPredictor:
    """Factory: build one component predictor by short name.

    ``entries`` is the *total* entry count (for CVP it is split across
    the three internal tables, matching the paper's footnote 3).
    """
    classes = {
        "lvp": LvpPredictor,
        "sap": SapPredictor,
        "cvp": CvpPredictor,
        "cap": CapPredictor,
        "lap": LapPredictor,
        "svp": SvpPredictor,
    }
    try:
        cls = classes[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; expected one of {sorted(classes)}"
        ) from None
    return cls(entries=entries, rng=rng)


__all__ = [
    "COMPONENT_NAMES",
    "EXTRA_COMPONENT_NAMES",
    "CapPredictor",
    "ComponentPredictor",
    "CvpPredictor",
    "LapPredictor",
    "LoadProbe",
    "LvpPredictor",
    "Prediction",
    "PredictionKind",
    "SapPredictor",
    "SvpPredictor",
    "make_component",
]
