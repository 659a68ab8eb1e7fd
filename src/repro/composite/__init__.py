"""Composite load value prediction (Section V of the paper).

The composite predictor combines the four components with:

* a selection policy (value > address, context-aware > agnostic),
* an **accuracy monitor** (M-AM or PC-AM) squashing unreliable
  components (Section V-B),
* optional **heterogeneous** component sizes (Section V-C, Table VI),
* **smart training** that avoids redundant updates (Section V-D), and
* dynamic **table fusion** between donors and receivers (Section V-E).
"""

from repro.composite.accuracy_monitor import (
    AccuracyMonitor,
    InfinitePcAm,
    MAm,
    NullAccuracyMonitor,
    PcAm,
    make_accuracy_monitor,
)
from repro.composite.composite import (
    SELECTION_ORDER,
    TRAINING_ORDER,
    CompositePredictor,
    CompositeStats,
)
from repro.composite.config import CompositeConfig
from repro.composite.fusion import FusionController, FusionState
from repro.composite.heterogeneous import (
    TABLE_VI_CONFIGS,
    candidate_allocations,
    paper_config,
    storage_kib,
)

__all__ = [
    "AccuracyMonitor",
    "CompositeConfig",
    "CompositePredictor",
    "CompositeStats",
    "FusionController",
    "FusionState",
    "InfinitePcAm",
    "MAm",
    "NullAccuracyMonitor",
    "PcAm",
    "SELECTION_ORDER",
    "TABLE_VI_CONFIGS",
    "TRAINING_ORDER",
    "candidate_allocations",
    "make_accuracy_monitor",
    "paper_config",
    "storage_kib",
]
