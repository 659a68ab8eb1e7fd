"""Fast program-order (functional) predictor evaluation.

Runs a composite predictor over a trace without the timing model:
histories update in program order, stores apply to memory immediately,
and each load is predicted, validated, and trained in sequence.  This
measures coverage, accuracy, and overlap -- the quantities behind
Figures 4 and 7 and the table6 design-space search -- at several times
the speed of the cycle model.

Functional mode has no in-flight window: address-prediction probes see
all older stores (no conflicting-store mispredictions) and
``inflight_same_pc`` is always zero.  Timing-sensitive effects need
:func:`repro.pipeline.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.history import HistorySet
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline.vp import ValuePredictorHost
from repro.predictors.types import LoadOutcome, LoadProbe, PredictionKind

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


def probe_load(histories: HistorySet, pc: int) -> LoadProbe:
    """The program-order probe for the load at ``pc``: the current
    histories and folds, no loads in flight."""
    return LoadProbe(
        pc=pc,
        direction_history=histories.direction,
        path_history=histories.path,
        load_path_history=histories.load_path,
        inflight_same_pc=0,
        folded=histories.folded_values(),
    )


def judge_and_train(
    predictor: ValuePredictorHost,
    decision,
    mem: MemoryImage,
    addr: int,
    size: int,
    value: int,
) -> tuple[dict[str, bool], list[int]]:
    """Judge every confident component of ``decision``, then train.

    A value prediction is judged by its value, an address prediction
    by what ``mem`` holds at its address now.  The predictor trains on
    the outcome ``(addr, size, value)`` with the histories of the
    decision's probe.  Returns the verdicts and the speculative values
    in confident order.
    """
    correctness = {}
    speculative_values = []
    for name, prediction in decision.confident.items():
        if prediction.kind is PredictionKind.VALUE:
            speculative = prediction.value
        else:
            speculative = mem.read(prediction.addr, prediction.size)
        speculative_values.append(speculative)
        correctness[name] = speculative == value
    probe = decision.probe
    predictor.validate_and_train(
        decision,
        LoadOutcome(
            pc=probe.pc, addr=addr, size=size, value=value,
            direction_history=probe.direction_history,
            path_history=probe.path_history,
            load_path_history=probe.load_path_history,
            folded=probe.folded,
        ),
        correctness,
    )
    return correctness, speculative_values


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
