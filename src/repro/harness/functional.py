"""Fast program-order (functional) predictor evaluation.

Runs a composite predictor over a trace without the timing model:
histories update in program order, stores apply to memory immediately,
and each load is predicted, validated, and trained in sequence.  This
measures coverage, accuracy, and overlap -- the quantities behind
Figures 4 and 7 and the table6 design-space search -- at several times
the speed of the cycle model.

Functional mode has no in-flight window: address-prediction probes see
all older stores (no conflicting-store mispredictions) and
the in-flight count is always zero.  Timing-sensitive effects need
:func:`repro.pipeline.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.history import HistorySet
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline.vp import ValuePredictorHost, judge

#: Semantics version of the functional evaluator, registered with the
#: results database (:mod:`repro.harness.resultsdb`).  Bump whenever a
#: change alters functional counters (coverage/accuracy/overlap
#: definitions, training order); backend-only speedups that stay
#: bit-exact leave it alone.
FUNCTIONAL_SEMANTICS_VERSION = 1


@dataclass
class FunctionalResult:
    """Counters from one functional run."""

    workload: str
    instructions: int
    loads: int = 0
    predicted_loads: int = 0
    correct_predictions: int = 0
    #: histogram[k] = predictable loads with exactly k confident components
    confident_histogram: list[int] = field(default_factory=lambda: [0] * 5)
    per_component_confident: dict = field(default_factory=dict)
    per_component_correct: dict = field(default_factory=dict)
    #: loads where >=2 components were confident (the overlap cases)
    multi_confident_loads: int = 0
    #: ...and among those, loads where their speculative values differed
    #: (the paper: "highly-confident predictors disagree less than
    #: 0.03% of the time")
    disagreements: int = 0

    @property
    def coverage(self) -> float:
        return self.predicted_loads / self.loads if self.loads else 0.0

    @property
    def accuracy(self) -> float:
        # A predictor that never predicts has demonstrated no accuracy;
        # reporting 1.0 here made never-predicting configs look perfect
        # in sweeps and reports.
        if not self.predicted_loads:
            return 0.0
        return self.correct_predictions / self.predicted_loads

    @property
    def disagreement_fraction(self) -> float:
        """Disagreements per multi-confident load."""
        if not self.multi_confident_loads:
            return 0.0
        return self.disagreements / self.multi_confident_loads


def probe_load(
    predictor: ValuePredictorHost, histories: HistorySet, pc: int
):
    """Probe ``predictor`` in program order for the load at ``pc``:
    the current histories, no ordinal, no loads in flight.  Returns
    the decision."""
    return predictor.predict(
        pc, -1, histories.direction, histories.path, histories.load_path, 0
    )


def judge_and_train(
    predictor: ValuePredictorHost,
    decision,
    mem: MemoryImage,
    addr: int,
    size: int,
    value: int,
) -> int:
    """Judge every confident slot of ``decision``, then train.

    A value prediction is judged by its value, an address prediction
    by what ``mem`` holds at its address now (:func:`judge`).  The
    predictor trains on ``(addr, size, value)`` with the decision's
    own load fields.  Returns the verdict mask.
    """
    correct = judge(decision, value, mem, predictor.address_slots)
    predictor.validate_and_train(decision, addr, size, value, correct)
    return correct


def run_functional(
    trace: Trace, predictor: ValuePredictorHost
) -> FunctionalResult:
    """Evaluate ``predictor`` over ``trace`` in program order.

    Packs the trace (once; the columns are memoized on it) and runs the
    vectorized batch backend (:mod:`repro.harness.functional_vec`).
    Raises :class:`ValueError` naming
    :func:`~repro.harness.functional_vec.vector_unsupported_reason` for
    a host the backend does not replay: anything but a
    :class:`~repro.composite.composite.CompositePredictor` of the four
    canonical components, monitors and fusion controller.
    """
    from repro.harness import functional_vec

    trace.pack()
    return functional_vec.run_functional_vec(trace, predictor)
