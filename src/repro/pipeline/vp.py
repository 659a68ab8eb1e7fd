"""Value-predictor host interface and the hosts beside the composite.

The core model talks to *any* load value predictor through a small
protocol.  :class:`repro.composite.CompositePredictor` implements it
natively, and a lone component (Figure 3) is simply a plain composite
of one (``{"kind": "component"}`` specs build exactly that; see
:func:`repro.harness.runner.build_predictor`).  EVES (Figures 11/12) is
wrapped in :class:`EvesAdapter`, which produces the same
:class:`~repro.composite.composite.CompositeDecision` records, and
:class:`NoPredictor` is the no-value-prediction baseline.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.composite.composite import CompositeDecision
from repro.predictors.types import LoadOutcome, LoadProbe


@runtime_checkable
class ValuePredictorHost(Protocol):
    """What the core model requires of a predictor assembly."""

    def predict(self, probe: LoadProbe) -> CompositeDecision: ...

    def validate_and_train(
        self,
        decision: CompositeDecision,
        outcome: LoadOutcome,
        correctness: dict[str, bool],
    ) -> None: ...

    def tick_instructions(self, count: int) -> None: ...

    def storage_bits(self) -> int: ...


class NoPredictor:
    """The no-value-prediction baseline."""

    def predict(self, probe: LoadProbe) -> CompositeDecision:
        return CompositeDecision(
            probe=probe, chosen=None, confident={}, squashed=frozenset()
        )

    def validate_and_train(self, decision, outcome, correctness) -> None:
        pass

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


class _EvesStats:
    """Coverage/accuracy bookkeeping of an :class:`EvesAdapter`."""

    __slots__ = ("loads", "predicted_loads", "correct_used", "incorrect_used")

    def __init__(self) -> None:
        self.loads = 0
        self.predicted_loads = 0
        self.correct_used = 0
        self.incorrect_used = 0

    @property
    def coverage(self) -> float:
        return self.predicted_loads / self.loads if self.loads else 0.0

    @property
    def accuracy(self) -> float:
        used = self.correct_used + self.incorrect_used
        return self.correct_used / used if used else 0.0


class EvesAdapter:
    """Run an EVES predictor through the host interface."""

    def __init__(self, eves) -> None:
        self.eves = eves
        self.stats = _EvesStats()

    def predict(self, probe: LoadProbe) -> CompositeDecision:
        self.stats.loads += 1
        prediction = self.eves.predict(probe)
        if prediction is None:
            return CompositeDecision(
                probe=probe, chosen=None, confident={}, squashed=frozenset()
            )
        self.stats.predicted_loads += 1
        return CompositeDecision(
            probe=probe,
            chosen=prediction,
            confident={prediction.component: prediction},
            squashed=frozenset(),
        )

    def validate_and_train(self, decision, outcome, correctness) -> None:
        if decision.chosen is not None:
            if correctness[decision.chosen.component]:
                self.stats.correct_used += 1
            else:
                self.stats.incorrect_used += 1
        self.eves.train(outcome)

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return self.eves.storage_bits()
