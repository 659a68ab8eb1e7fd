"""Value-predictor host interface and adapters.

The core model talks to *any* load value predictor through a small
protocol -- :class:`repro.composite.CompositePredictor` implements it
natively; single components (Figure 3) and EVES (Figures 11/12) are
wrapped in adapters that produce the same
:class:`~repro.composite.composite.CompositeDecision` records.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.composite.composite import CompositeDecision
from repro.predictors.base import ComponentPredictor
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


class _AdapterStats:
    """Coverage/accuracy bookkeeping shared by the adapters."""

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


class SingleComponentAdapter:
    """Run one component predictor in isolation (Figure 3)."""

    def __init__(self, component: ComponentPredictor) -> None:
        self.component = component
        self.stats = _AdapterStats()

    def bind_history(self, histories) -> None:
        self.component.bind_history(histories)

    def bind_frontend(self, stream) -> None:
        self.component.bind_frontend(stream)

    def predict(self, probe: LoadProbe) -> CompositeDecision:
        self.stats.loads += 1
        prediction = self.component.predict(probe)
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
                self.component.penalize(outcome)
        self.component.train(outcome)

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return self.component.storage_bits()


class EvesAdapter:
    """Run an EVES predictor through the host interface."""

    def __init__(self, eves) -> None:
        self.eves = eves
        self.stats = _AdapterStats()

    def bind_history(self, histories) -> None:
        bind = getattr(self.eves, "bind_history", None)
        if bind is not None:
            bind(histories)

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
