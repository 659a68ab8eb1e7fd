"""Configuration for the composite predictor and its optimizations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompositeConfig:
    """Knobs for :class:`repro.composite.composite.CompositePredictor`.

    Defaults model the paper's 1K-entry homogeneous design point with
    every optimization enabled.  ``epoch_instructions`` is 1M in the
    paper; experiments scale it down proportionally to trace length
    (see DESIGN.md, "Fidelity notes").
    """

    lvp_entries: int = 1024
    sap_entries: int = 1024
    cvp_entries: int = 1024
    cap_entries: int = 1024

    #: Additional (name, entries) components beyond the paper's four --
    #: e.g. the footnote-1 predictors ``lap``/``svp`` for the
    #: redundancy ablation.
    extra_components: tuple = ()

    #: Accuracy monitor: "none", "m-am", "pc-am", or "pc-am-infinite".
    accuracy_monitor: str = "pc-am"
    pc_am_entries: int = 64
    #: M-AM silencing threshold, mispredictions per kilo-prediction.
    m_am_mpkp_threshold: float = 3.0
    #: PC-AM silencing threshold on per-PC accuracy.
    pc_am_accuracy_threshold: float = 0.95

    smart_training: bool = True

    #: Selection policy among confident components.  True (the paper's
    #: choice) prefers value predictors -- equally accurate but cheaper,
    #: as they skip the speculative D-cache probe; False prefers
    #: address predictors, for the power ablation of Section V-A.
    prefer_value_predictions: bool = True

    table_fusion: bool = True
    #: Used predictions per kilo-instruction below which an epoch counts
    #: against a component (donor candidate).
    fusion_upki_threshold: float = 20.0
    #: Epochs observed before classifying donors/receivers (paper: N=5).
    fusion_observe_epochs: int = 5
    #: Epochs after which fusion is reverted and re-evaluated (M=25).
    fusion_revert_epochs: int = 25

    #: Instructions per epoch for M-AM and fusion bookkeeping.
    epoch_instructions: int = 1_000_000

    #: Adjustment applied to every component's Table IV confidence
    #: threshold (clamped to [1, counter max]).  Negative values trade
    #: accuracy for coverage -- the sensitivity the paper tuned away
    #: ("lower accuracy tends to decrease performance gains").
    confidence_delta: int = 0

    #: Root seed for FPC streams and tie-breaking.
    seed: int = 0

    def entries(self) -> dict[str, int]:
        mapping = {
            "lvp": self.lvp_entries,
            "sap": self.sap_entries,
            "cvp": self.cvp_entries,
            "cap": self.cap_entries,
        }
        for name, entries in self.extra_components:
            mapping[name] = entries
        return mapping

    def total_entries(self) -> int:
        return sum(e for e in self.entries().values())

    def with_entries(self, lvp: int, sap: int, cvp: int, cap: int) -> "CompositeConfig":
        """Copy with a different (possibly heterogeneous) allocation."""
        return _replace(
            self, lvp_entries=lvp, sap_entries=sap, cvp_entries=cvp,
            cap_entries=cap,
        )

    def homogeneous(self, per_component: int) -> "CompositeConfig":
        return self.with_entries(
            per_component, per_component, per_component, per_component
        )

    @property
    def is_homogeneous(self) -> bool:
        sizes = set(self.entries().values())
        return len(sizes) == 1

    def plain(self) -> "CompositeConfig":
        """Copy with every optimization disabled (Section V-A baseline)."""
        return _replace(
            self, accuracy_monitor="none", smart_training=False,
            table_fusion=False,
        )


def _replace(config: CompositeConfig, **changes) -> CompositeConfig:
    from dataclasses import replace

    return replace(config, **changes)

