"""Value-predictor host interface and the no-prediction baseline.

The core model talks to *any* load value predictor through a small
protocol.  :class:`repro.composite.CompositePredictor` implements it
natively, and a lone component (Figure 3) is simply a plain composite
of one (``{"kind": "component"}`` specs build exactly that; see
:func:`repro.composite.build.build_predictor`).
:class:`repro.eves.EvesPredictor` (Figures 11/12) implements it too,
with one slot, and :class:`NoPredictor` is the no-value-prediction
baseline, with none.

The protocol is plain ints (:mod:`repro.predictors.types`).  A host
names its predictors by slot (``slot_names``) and says which slots
predict addresses (``address_slots``).  ``predict`` takes a load's six
fields and returns the decision record; the host that validates the
load judges it into a verdict mask (:func:`judge`) and hands the
decision back, unchanged, with the load's ``(addr, size, value)`` and
that mask to ``validate_and_train``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.predictors.types import (
    CONFIDENT,
    NO_DECISION,
    PREDICTED,
    address_of,
    size_of,
)


@runtime_checkable
class ValuePredictorHost(Protocol):
    """What the core model requires of a predictor assembly."""

    #: The predictors' names, in slot order.
    slot_names: tuple[str, ...]
    #: Mask of the slots whose predictions are packed addresses.
    address_slots: int

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ): ...

    def validate_and_train(
        self, decision, addr: int, size: int, value: int, correct: int,
    ) -> None: ...

    def tick_instructions(self, count: int) -> None: ...

    def storage_bits(self) -> int: ...


def judge(decision, value: int, mem, address_slots: int) -> int:
    """The verdict mask of one decision: every confident slot whose
    prediction produces ``value``.

    A value prediction is judged by its value, an address prediction
    by what ``mem`` (a :class:`~repro.memory.image.MemoryImage`) holds
    at its address now.
    """
    confident = decision[CONFIDENT]
    correct = 0
    slot = 0
    while confident >> slot:
        if confident >> slot & 1:
            prediction = decision[PREDICTED + slot]
            if address_slots >> slot & 1:
                prediction = mem.read(
                    address_of(prediction), size_of(prediction)
                )
            if prediction == value:
                correct |= 1 << slot
        slot += 1
    return correct


class NoPredictor:
    """The no-value-prediction baseline."""

    slot_names: tuple[str, ...] = ()
    address_slots = 0

    def predict(self, pc, ordinal, direction, path, load_path, inflight):
        return NO_DECISION

    def validate_and_train(self, decision, addr, size, value,
                           correct) -> None:
        pass

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return 0
