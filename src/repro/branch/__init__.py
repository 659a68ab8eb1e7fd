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

from repro.branch.history import HistorySet
from repro.branch.bimodal import BimodalPredictor
from repro.branch.tage import TagePredictor, TageConfig
from repro.branch.ittage import IttagePredictor, IttageConfig
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchUnit

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
