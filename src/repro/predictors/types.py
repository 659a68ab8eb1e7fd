"""The per-load contract shared by every predictor: plain ints.

A load reaches the predictors as six ints, its *load fields*: the PC,
its ordinal, the three raw fetch-time histories (branch direction,
branch path, load path) and the number of older in-flight instances of
the same static load.  Component ``predict`` takes exactly these;
``train``/``penalize``/``invalidate`` take them again plus the load's
``(addr, size, value)``, so training indexes the table entries
prediction used.

A component's prediction is one int (or ``None``): a VALUE component
returns the predicted value; an ADDRESS component returns the
predicted address with the access size folded into its two low bits,
``addr << 2 | log2(size)`` (a host reads it back with
:func:`address_of` and :func:`size_of`).

A host (:class:`repro.pipeline.vp.ValuePredictorHost`) numbers its
predictors by *slot* -- bit ``1 << slot`` of a mask -- and answers a
fetched load with one flat *decision* record, a list indexed by the
constants below: the load fields, the confident and squashed slot
masks, the chosen slot (``-1`` for none) and, from index
:data:`PREDICTED` on, each slot's predicted int.  The host that
validates the load judges each confident slot into a *verdict mask*
(bit set = that slot's prediction would have produced the right
value) and hands the decision back, exactly as ``predict`` returned
it, to ``validate_and_train``.  Nothing per load is a dict, a set or a
record of its own: ``tests/test_record_immutability.py`` holds every
host to that.
"""

from __future__ import annotations

import enum


class PredictionKind(enum.Enum):
    """Whether a component predicts the load's value or its address."""

    VALUE = "value"
    ADDRESS = "address"


#: Positions of the load fields in a decision record.
PC, ORDINAL, DIRECTION, PATH, LOAD_PATH, INFLIGHT = range(6)
#: Positions of the host's fetch-time verdict: the confident slot mask,
#: the squashed subset of it, and the chosen slot (``-1``: none).
CONFIDENT, SQUASHED, CHOSEN = range(6, 9)
#: ``decision[PREDICTED + slot]`` is the slot's predicted int (``None``
#: when the slot is not confident).
PREDICTED = 9

#: A decision for a load no predictor was confident about, from a host
#: with no slots (the no-prediction baseline).
NO_DECISION = (0, -1, 0, 0, 0, 0, 0, 0, -1)


def address_of(prediction: int) -> int:
    """The address of a packed address prediction."""
    return prediction >> 2


def size_of(prediction: int) -> int:
    """The access size, in bytes, of a packed address prediction."""
    return 1 << (prediction & 3)


def slot_names(mask: int, names: tuple[str, ...]) -> list[str]:
    """The names of the slots set in ``mask``, sorted."""
    return sorted(name for slot, name in enumerate(names) if mask >> slot & 1)
