"""Branch prediction substrate.

The baseline core (Table III of the paper) uses a 32KB TAGE conditional
predictor, a 32KB ITTAGE indirect predictor, and a 16-entry return
address stack.  :class:`HistorySet` holds the history registers the
predictors hash -- and that the context-aware value predictors (CVP,
CAP) consume:

* global direction history and branch *path* history (TAGE, ITTAGE,
  CVP),
* load path history (CAP).
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.branch.history": ("HistorySet",),
    "repro.branch.bimodal": ("BimodalPredictor",),
    "repro.branch.tage": ("TagePredictor", "TageConfig"),
    "repro.branch.ittage": ("IttagePredictor", "IttageConfig"),
    "repro.branch.ras": ("ReturnAddressStack",),
    "repro.branch.unit": ("BranchUnit",),
})

__all__ = [
    "BimodalPredictor",
    "BranchUnit",
    "HistorySet",
    "IttageConfig",
    "IttagePredictor",
    "ReturnAddressStack",
    "TageConfig",
    "TagePredictor",
]
