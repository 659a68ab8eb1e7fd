"""Value-predictor host interface and the no-prediction baseline.

The core model talks to *any* load value predictor through a small
protocol.  :class:`repro.composite.CompositePredictor` implements it
natively, and a lone component (Figure 3) is simply a plain composite
of one (``{"kind": "component"}`` specs build exactly that; see
:func:`repro.harness.runner.build_predictor`).
:class:`repro.eves.EvesPredictor` (Figures 11/12) implements it too,
producing the same
:class:`~repro.composite.composite.CompositeDecision` records, and
:class:`NoPredictor` is the no-value-prediction baseline.

A host trains a load with the decision its ``predict`` returned (whose
``probe`` carries the fetch-time histories) plus the load's
``(addr, size, value)`` and the per-component correctness verdicts.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.composite.composite import CompositeDecision
from repro.predictors.types import LoadProbe


@runtime_checkable
class ValuePredictorHost(Protocol):
    """What the core model requires of a predictor assembly."""

    def predict(self, probe: LoadProbe) -> CompositeDecision: ...

    def validate_and_train(
        self,
        decision: CompositeDecision,
        addr: int,
        size: int,
        value: int,
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

    def validate_and_train(self, decision, addr, size, value,
                           correctness) -> None:
        pass

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return 0
