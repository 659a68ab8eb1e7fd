"""The composite load value predictor (Section V of the paper).

Runs LVP, SAP, CVP, and CAP side by side.  At fetch, every component is
probed (and the accuracy monitor consulted); among confident,
non-silenced components one prediction is *used*, preferring value
predictors over address predictors (no D-cache probe needed) and
context-aware over context-agnostic (accuracy): CVP > LVP > CAP > SAP.

At validation time the host (pipeline or functional harness) reports
which confident components were correct; the composite updates the AM,
applies the training policy (train-all, or *smart training* per
Section V-D), and feeds the fusion controller.

One load goes through as plain ints, the way the hardware sees a hit
vector and a select.  Each component owns a *slot* -- its position in
:attr:`CompositePredictor.slot_names`, bit ``1 << slot`` of every
mask.  ``predict`` returns one flat decision record
(:mod:`repro.predictors.types`): the load's fields, the confident and
squashed masks, the chosen slot and each slot's predicted int.
``validate_and_train`` takes it back with the verdict mask.  The
selection and smart-training priorities are tables indexed by mask,
and the statistics are counted per (confident, used) and (confident,
correct) mask pair, then folded into the name-keyed
:class:`CompositeStats` whenever :attr:`CompositePredictor.stats` is
read.

For the paper's four components those two calls are the whole
per-load step: they read and write the components' table columns
directly through the closures :func:`repro.composite.step.bind_step`
builds on the first ``predict`` (bound to a timing run's per-trace
hash columns while ``bind_trace`` holds its trace), and call the
monitor and the fusion controller on confident loads only.  Any other
assembly (the footnote-1 LAP/SVP cells, subclassed components), and
any load while fusion has tables fused, runs the method path, each
component's own ``predict``/``train``, which stays the reference the
step is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.common.rng import DeterministicRng
from repro.composite.accuracy_monitor import AccuracyMonitor, make_accuracy_monitor
from repro.composite.config import CompositeConfig
from repro.composite.fusion import FusionController
from repro.composite.step import (
    bind_step,
    step_unsupported_reason,
    verdict_error,
)
from repro.predictors import COMPONENT_NAMES, make_component
from repro.predictors.base import ComponentPredictor
from repro.predictors.types import (
    CHOSEN,
    CONFIDENT,
    DIRECTION,
    INFLIGHT,
    LOAD_PATH,
    ORDINAL,
    PATH,
    PC,
    PREDICTED,
    SQUASHED,
    PredictionKind,
)

#: Selection priority for the canonical four components: value before
#: address, context-aware before context-agnostic within each group.
SELECTION_ORDER = ("cvp", "lvp", "cap", "sap")

#: Smart-training priority for the canonical four: value before
#: address, context-AGNOSTIC before context-aware (a context-agnostic
#: entry covers more dynamic loads per bit of storage).
TRAINING_ORDER = ("lvp", "cvp", "sap", "cap")


def selection_order(
    components: dict, prefer_value: bool = True
) -> tuple[str, ...]:
    """Generalized selection order over any set of components.

    Value predictors beat address predictors (no D-cache access),
    context-aware beats context-agnostic (accuracy).  Reduces to
    ``SELECTION_ORDER`` for the paper's four.  ``prefer_value=False``
    flips the value/address preference (the power ablation: the paper
    notes highly-confident components almost never disagree, so the
    choice is about probe energy, not performance).
    """
    return tuple(sorted(
        components,
        key=lambda n: (
            (components[n].kind is not PredictionKind.VALUE) == prefer_value,
            not components[n].context_aware,
            getattr(components[n], "rank", 0),
        ),
    ))


def training_order(components: dict) -> tuple[str, ...]:
    """Generalized smart-training order: value first, agnostic first."""
    return tuple(sorted(
        components,
        key=lambda n: (
            components[n].kind is not PredictionKind.VALUE,
            components[n].context_aware,
            getattr(components[n], "rank", 0),
        ),
    ))


@dataclass
class CompositeStats:
    """Counters behind Figures 4, 7, 11, and 12."""

    loads: int = 0
    predicted_loads: int = 0
    correct_used: int = 0
    incorrect_used: int = 0
    #: histogram[k] = loads for which exactly k components were confident.
    confident_histogram: list[int] = field(default_factory=lambda: [0] * 5)
    #: per-component confident / chosen / correct-when-confident counts.
    confident_by: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COMPONENT_NAMES, 0)
    )
    chosen_by: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COMPONENT_NAMES, 0)
    )
    correct_by: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COMPONENT_NAMES, 0)
    )
    incorrect_by: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COMPONENT_NAMES, 0)
    )
    #: loads for which only one component was confident, per component.
    sole_predictor: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COMPONENT_NAMES, 0)
    )
    #: total component-train operations (Figure 7's "predictors updated").
    train_operations: int = 0
    train_events: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of eligible loads that received a used prediction."""
        return self.predicted_loads / self.loads if self.loads else 0.0

    @property
    def accuracy(self) -> float:
        """Accuracy of used predictions."""
        used = self.correct_used + self.incorrect_used
        return self.correct_used / used if used else 0.0

    @property
    def avg_predictors_trained(self) -> float:
        if not self.train_events:
            return 0.0
        return self.train_operations / self.train_events

    def multiple_prediction_fraction(self) -> float:
        """Fraction of predicted loads covered by >= 2 components."""
        predicted = sum(self.confident_histogram[1:])
        if not predicted:
            return 0.0
        return sum(self.confident_histogram[2:]) / predicted




@functools.cache
def _first_in_order(order: tuple[int, ...], width: int) -> tuple[int, ...]:
    """``table[mask]``: the first slot of ``order`` set in ``mask``
    (``-1`` when none is), for every mask over ``width`` slots.  Shared
    by every predictor with the same components (explore builds one
    per cell)."""
    return tuple(
        next((slot for slot in order if mask >> slot & 1), -1)
        for mask in range(1 << width)
    )


class CompositePredictor:
    """All four component predictors plus filters, as one unit."""

    def __init__(self, config: CompositeConfig | None = None) -> None:
        self.config = config or CompositeConfig()
        rng = DeterministicRng(self.config.seed, "composite")
        # A zero-entry component is omitted entirely, as in the paper's
        # heterogeneous sizing exploration ("zero entries means that we
        # left the component predictor out completely").
        self.components: dict[str, ComponentPredictor] = {
            name: self._build_component(name, entries, rng)
            for name, entries in self.config.entries().items()
            if entries > 0
        }
        if not self.components:
            raise ValueError("composite predictor needs at least one component")
        #: Component names in slot order: slot ``s`` is bit ``1 << s``.
        self.slot_names = tuple(self.components)
        #: Mask of the slots whose predictions are packed addresses.
        self.address_slots = sum(
            1 << slot
            for slot, component in enumerate(self.components.values())
            if component.kind is PredictionKind.ADDRESS
        )
        self._width = width = len(self.slot_names)
        #: ``(bit, decision position, component)`` of every slot.
        self._slots = tuple(
            (1 << slot, PREDICTED + slot, component)
            for slot, component in enumerate(self.components.values())
        )
        self._unpredicted = (None,) * width
        self._selection_order = selection_order(
            self.components, self.config.prefer_value_predictions
        )
        self._training_order = training_order(self.components)
        slot_of = {name: slot for slot, name in enumerate(self.slot_names)}
        #: The chosen slot, by mask of confident unsquashed slots.
        self._choice = _first_in_order(
            tuple(slot_of[name] for name in self._selection_order), width
        )
        #: The bit of the slot smart training trains among the correct
        #: ones, by verdict mask (0 when none is correct).
        self._trained_correct = tuple(
            0 if slot < 0 else 1 << slot
            for slot in _first_in_order(
                tuple(slot_of[name] for name in self._training_order), width
            )
        )
        #: SAP's bit: smart training invalidates a correct SAP it does
        #: not train.
        self._invalidated = 1 << slot_of["sap"] if "sap" in slot_of else 0
        self.monitor: AccuracyMonitor = make_accuracy_monitor(
            self.config.accuracy_monitor,
            self.config.pc_am_entries,
            self.config.m_am_mpkp_threshold,
            self.config.pc_am_accuracy_threshold,
            component_names=self.slot_names,
        )
        self.fusion: FusionController | None = None
        if self.config.table_fusion:
            if not self.config.is_homogeneous:
                raise ValueError(
                    "table fusion requires a homogeneous allocation "
                    f"(got {self.config.entries()}); disable table_fusion "
                    "or use equal component sizes"
                )
            self.fusion = FusionController(
                self.components,
                self.config.epoch_instructions,
                self.config.fusion_upki_threshold,
                self.config.fusion_observe_epochs,
                self.config.fusion_revert_epochs,
            )
        # The non-donor slots and the fusion controller's fusion plus
        # reversion count they were built at (both only grow, so their
        # sum changes exactly when the donor set may have).
        self._live = self._slots
        self._live_mark = 0
        self._stats = self.new_stats()
        # Loads counted since the last fold into ``_stats``: by
        # ``confident << width | used`` at fetch (``used``: the
        # confident slots left unsquashed), by
        # ``confident << width | correct`` at validation, by whether the
        # chosen prediction was correct, and component-train operations.
        self._fetch_counts = [0] * (1 << 2 * width)
        self._verdict_counts = [0] * (1 << 2 * width)
        self._used_counts = [0, 0]
        self._train_operations = 0
        self._instructions_in_epoch = 0

    def _build_component(self, name: str, entries: int, rng):
        """Construct one component, applying ``confidence_delta``
        (clamped to the component's FPC range)."""
        component = make_component(name, entries, rng)
        delta = self.config.confidence_delta
        if delta:
            # Instance-level override of the Table IV tuning, for the
            # accuracy-vs-coverage sensitivity ablation.  The paper
            # "tuned each predictor to achieve 99% accuracy (thereby
            # sacrificing coverage)"; lowering the bar trades the other
            # way.
            component.confidence_threshold = min(
                component.fpc_vector.maximum,
                max(1, component.confidence_threshold + delta),
            )
        return component

    # ------------------------------------------------------------------
    # The per-load step
    # ------------------------------------------------------------------
    #
    # ``predict`` and ``validate_and_train`` run ``_predict_step`` and
    # ``_train_step``: the bound step of repro.composite.step for the
    # paper's components (which hands a load to the method path below
    # while fusion has tables fused), or the method path itself for any
    # other assembly.  Both are bound on the first call, as instance
    # attributes over these class-level defaults, and dropped (rebound
    # on the next call) when a timing run binds or releases its trace.
    # They are never pickled: a restored predictor binds afresh.

    #: The trace of the current whole-trace timing run, or None.
    _trace = None
    _STEP_STATE = ("_predict_step", "_train_step", "_trace")

    def bind_trace(self, trace) -> None:
        """Bind the trace of one whole-trace timing run (or ``None``).

        The core model passes the trace before the run and ``None``
        after it.  While a trace is bound, the step reads each load's
        table indices and tags by its ordinal from the trace's
        :func:`~repro.predictors.hash_columns.trace_hash_columns`;
        without one it hashes the load's raw histories.
        """
        self._trace = trace
        self._unbind_step()

    def _bind_step(self) -> None:
        # Plain functions taking the predictor first, not bound methods:
        # the predictor's own __dict__ holds them, so a bound method
        # would be a reference cycle.
        if step_unsupported_reason(self) is None:
            self._predict_step, self._train_step = bind_step(self, self._trace)
        else:
            self._predict_step = type(self)._predict_methods
            self._train_step = type(self)._train_methods

    def _unbind_step(self) -> None:
        self.__dict__.pop("_predict_step", None)
        self.__dict__.pop("_train_step", None)

    @staticmethod
    def _predict_step(host, *load) -> list:
        host._bind_step()
        return host._predict_step(host, *load)

    @staticmethod
    def _train_step(host, *validation) -> int:
        host._bind_step()
        return host._train_step(host, *validation)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in self._STEP_STATE:
            state.pop(key, None)
        return state

    # ------------------------------------------------------------------
    # Fetch side
    # ------------------------------------------------------------------

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> list:
        """Probe every live component for one fetched load; return its
        decision record."""
        return self._predict_step(
            self, pc, ordinal, direction, path, load_path, inflight
        )

    def _predict_methods(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> list:
        """:meth:`predict` through each live component's ``predict``."""
        live = self._live
        fusion = self.fusion
        if fusion is not None:
            live = self._live_slots()
        decision = [pc, ordinal, direction, path, load_path, inflight,
                    0, 0, -1, *self._unpredicted]
        confident = 0
        for bit, position, component in live:
            prediction = component.predict(
                pc, ordinal, direction, path, load_path, inflight
            )
            if prediction is not None:
                confident |= bit
                decision[position] = prediction
        if not confident:
            self._fetch_counts[0] += 1
            return decision
        squashed = self.monitor.silenced(pc, confident)
        used = confident ^ squashed
        chosen = self._choice[used]
        decision[CONFIDENT] = confident
        decision[SQUASHED] = squashed
        decision[CHOSEN] = chosen
        self._fetch_counts[confident << self._width | used] += 1
        if chosen >= 0 and fusion is not None:
            fusion.note_used_prediction(self.slot_names[chosen])
        return decision

    # ------------------------------------------------------------------
    # Validation / training side
    # ------------------------------------------------------------------

    def validate_and_train(
        self, decision: list, addr: int, size: int, value: int,
        correct: int,
    ) -> None:
        """Validate a load's predictions and apply the training policy.

        Components train on the decision's own fetch-time load fields
        and the load's ``(addr, size, value)``.  ``correct`` is the
        verdict mask: the confident slots whose prediction would have
        produced the correct value (for address predictors the host
        resolves the probe and the possibility of conflicting stores).
        """
        self._train_operations += self._train_step(
            self, decision, addr, size, value, correct
        )

    def _train_methods(
        self, decision: list, addr: int, size: int, value: int,
        correct: int,
    ) -> int:
        """:meth:`validate_and_train` through each component's
        ``penalize``/``train``/``invalidate``; returns the number of
        component-train operations."""
        confident = decision[CONFIDENT]
        if correct & ~confident:
            raise verdict_error(correct, confident)
        self._verdict_counts[confident << self._width | correct] += 1
        pc = decision[PC]
        ordinal = decision[ORDINAL]
        direction = decision[DIRECTION]
        path = decision[PATH]
        load_path = decision[LOAD_PATH]
        inflight = decision[INFLIGHT]
        live = self._live
        if self.fusion is not None:
            live = self._live_slots()
        if confident:
            chosen = decision[CHOSEN]
            if chosen >= 0:
                self._used_counts[correct >> chosen & 1] += 1
            self.monitor.record(pc, confident, correct, chosen)
            wrong = confident ^ correct
            if wrong:
                # Misprediction feedback: reset confidence of every
                # confident component that was wrong (address predictors
                # need this explicitly; see ComponentPredictor.penalize).
                for bit, _, component in self._slots:
                    if wrong & bit:
                        component.penalize(
                            pc, ordinal, direction, path, load_path,
                            inflight, addr, size, value,
                        )
            if self.config.smart_training:
                # The Section V-D policy.  Train (a) every
                # confident-but-wrong component, to evict its entry
                # quickly, and (b) the cheapest correct component in the
                # order LVP, CVP, SAP, CAP.  A correct SAP that was not
                # chosen for training is invalidated: skipping its
                # training would break the stored stride anyway.  (No
                # prediction at all trains everything, below, to
                # minimize warm-up.)
                trained = wrong | self._trained_correct[correct]
                invalidated = correct & self._invalidated & ~trained
                operations = 0
                for bit, _, component in live:
                    if trained & bit:
                        component.train(
                            pc, ordinal, direction, path, load_path,
                            inflight, addr, size, value,
                        )
                        operations += 1
                    elif invalidated & bit:
                        component.invalidate(
                            pc, ordinal, direction, path, load_path,
                            inflight, addr, size, value,
                        )
                return operations
        for _, _, component in live:
            component.train(
                pc, ordinal, direction, path, load_path, inflight,
                addr, size, value,
            )
        return len(live)

    def _live_slots(self) -> tuple:
        """The slots of the non-donor components, rebuilt only when the
        fusion controller has fused or reverted since the last call."""
        state = self.fusion.state
        mark = state.fusions_performed + state.reversions_performed
        if mark != self._live_mark:
            is_donor = self.fusion.is_donor
            self._live = tuple(
                entry for entry, name in zip(self._slots, self.slot_names)
                if not is_donor(name)
            )
            self._live_mark = mark
        return self._live

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def stats(self) -> CompositeStats:
        """The name-keyed counters, every load counted so far included."""
        self._fold_stats()
        return self._stats

    def new_stats(self) -> CompositeStats:
        """Zeroed name-keyed counters over this predictor's components."""
        stats = CompositeStats()
        for tracker in (
            stats.confident_by, stats.chosen_by, stats.correct_by,
            stats.incorrect_by, stats.sole_predictor,
        ):
            tracker.clear()
            tracker.update(dict.fromkeys(self.slot_names, 0))
        # The histogram needs a bucket per possible confident count.
        stats.confident_histogram = [0] * (self._width + 1)
        return stats

    def fold_pending(self, stats: CompositeStats) -> CompositeStats:
        """Add the loads counted since the last fold into ``stats``
        (the pending counts stay) and return it.

        The one fold from mask-indexed counts to name-keyed ones:
        :attr:`stats` folds into the predictor's running totals, and
        the functional backend into a fresh :meth:`new_stats` for one
        run's result.
        """
        names = self.slot_names
        width = self._width
        low = (1 << width) - 1
        for key, count in enumerate(self._fetch_counts):
            if not count:
                continue
            confident = key >> width
            chosen = self._choice[key & low]
            k = confident.bit_count()
            stats.loads += count
            stats.confident_histogram[k] += count
            for slot, name in enumerate(names):
                if confident >> slot & 1:
                    stats.confident_by[name] += count
                    if k == 1:
                        stats.sole_predictor[name] += count
            if chosen >= 0:
                stats.predicted_loads += count
                stats.chosen_by[names[chosen]] += count
        for key, count in enumerate(self._verdict_counts):
            if not count:
                continue
            confident = key >> width
            stats.train_events += count
            for slot, name in enumerate(names):
                if key >> slot & 1:
                    stats.correct_by[name] += count
                elif confident >> slot & 1:
                    stats.incorrect_by[name] += count
        stats.incorrect_used += self._used_counts[0]
        stats.correct_used += self._used_counts[1]
        stats.train_operations += self._train_operations
        return stats

    def _fold_stats(self) -> None:
        """Fold the pending counts into :attr:`stats` and clear them
        (in place: the bound step holds the count tables)."""
        self.fold_pending(self._stats)
        for counts in (
            self._fetch_counts, self._verdict_counts, self._used_counts
        ):
            counts[:] = [0] * len(counts)
        self._train_operations = 0

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------

    def tick_instructions(self, count: int = 1) -> int:
        """Advance the instruction clock by ``count``, firing every
        epoch end it reaches; return the instructions left before the
        next epoch end."""
        total = self._instructions_in_epoch + count
        epoch = self.config.epoch_instructions
        while total >= epoch:
            total -= epoch
            self.monitor.end_epoch()
            if self.fusion is not None:
                self.fusion.end_epoch()
        self._instructions_in_epoch = total
        return epoch - total

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        return (
            sum(c.storage_bits() for c in self.components.values())
            + self.monitor.storage_bits()
        )

    def storage_kib(self) -> float:
        return self.storage_bits() / 8 / 1024

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(
            f"{n}={c.base_entries}" for n, c in self.components.items()
        )
        return f"CompositePredictor({sizes}, {self.storage_kib():.2f}KiB)"
