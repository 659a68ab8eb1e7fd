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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import DeterministicRng
from repro.composite.accuracy_monitor import AccuracyMonitor, make_accuracy_monitor
from repro.composite.config import CompositeConfig
from repro.composite.fusion import FusionController
from repro.predictors import COMPONENT_NAMES, make_component
from repro.predictors.base import ComponentPredictor
from repro.predictors.types import (
    LoadOutcome,
    LoadProbe,
    Prediction,
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


@dataclass(frozen=True, slots=True)
class CompositeDecision:
    """Fetch-time result: what was predicted and by whom."""

    probe: LoadProbe
    #: The prediction actually forwarded to the VPE/PAQ (or None).
    chosen: Prediction | None
    #: Every confident component's prediction, pre-AM squash.
    confident: dict[str, Prediction]
    #: Subset of ``confident`` squashed by the accuracy monitor.
    squashed: frozenset[str]

    @property
    def predicted(self) -> bool:
        return self.chosen is not None


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
        # Components are fixed after construction; the items tuple is
        # what the per-load loops iterate (no dict-view rebuild per load).
        self._component_items = tuple(self.components.items())
        self._selection_order = selection_order(
            self.components, self.config.prefer_value_predictions
        )
        self._training_order = training_order(self.components)
        self.monitor: AccuracyMonitor = make_accuracy_monitor(
            self.config.accuracy_monitor,
            self.config.pc_am_entries,
            self.config.m_am_mpkp_threshold,
            self.config.pc_am_accuracy_threshold,
            component_names=tuple(self.components),
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
        self.stats = CompositeStats()
        for tracker in (
            self.stats.confident_by, self.stats.chosen_by,
            self.stats.correct_by, self.stats.incorrect_by,
            self.stats.sole_predictor,
        ):
            tracker.clear()
            tracker.update(dict.fromkeys(self.components, 0))
        # The histogram needs a bucket per possible confident count.
        self.stats.confident_histogram = [0] * (len(self.components) + 1)
        self._instructions_in_epoch = 0
        # (fusion mark, items, mapping) of the non-donor components;
        # donors only change when the fusion counters change, so the
        # per-load loops reuse this instead of re-filtering.
        self._active_cache: tuple | None = None

    def _build_component(self, name: str, entries: int, rng):
        """Construct one component, applying ``confidence_delta``."""
        if self.config.confidence_delta == 0:
            return make_component(name, entries, rng)
        from repro.predictors import make_component as factory

        default = factory(name, 4).confidence_threshold
        maximum = factory(name, 4).fpc_vector.maximum
        threshold = min(
            maximum, max(1, default + self.config.confidence_delta)
        )
        return make_component(
            name, entries, rng, confidence_threshold=threshold
        )

    def bind_history(self, histories) -> None:
        """Register every component's fold widths on the live histories."""
        for component in self.components.values():
            component.bind_history(histories)

    def bind_frontend(self, stream) -> None:
        """Hand every component the run's front-end stream (or ``None``)."""
        for component in self.components.values():
            component.bind_frontend(stream)

    # ------------------------------------------------------------------
    # Fetch side
    # ------------------------------------------------------------------

    def predict(self, probe: LoadProbe) -> CompositeDecision:
        """Probe every component for one fetched load."""
        confident: dict[str, Prediction] = {}
        squashed: set[str] = set()
        silenced = self.monitor.silenced
        active, _ = self._active()
        for name, component in active:
            prediction = component.predict(probe)
            if prediction is None:
                continue
            confident[name] = prediction
            if silenced(name, probe.pc):
                squashed.add(name)

        chosen = None
        for name in self._selection_order:
            if name in confident and name not in squashed:
                chosen = confident[name]
                break

        self.stats.loads += 1
        count = len(confident)
        self.stats.confident_histogram[count] += 1
        for name in confident:
            self.stats.confident_by[name] += 1
            if count == 1:
                self.stats.sole_predictor[name] += 1
        if chosen is not None:
            self.stats.predicted_loads += 1
            self.stats.chosen_by[chosen.component] += 1
            if self.fusion is not None:
                self.fusion.note_used_prediction(chosen.component)
        return CompositeDecision(
            probe=probe,
            chosen=chosen,
            confident=confident,
            squashed=frozenset(squashed),
        )

    # ------------------------------------------------------------------
    # Validation / training side
    # ------------------------------------------------------------------

    def validate_and_train(
        self,
        decision: CompositeDecision,
        outcome: LoadOutcome,
        correctness: dict[str, bool],
    ) -> None:
        """Validate a load's predictions and apply the training policy.

        ``correctness`` must contain an entry for every component in
        ``decision.confident``: True if that component's prediction
        would have produced the correct value (for address predictors
        the host resolves the probe and the possibility of conflicting
        stores).
        """
        # Verdict-completeness check folded into the tally loop: building
        # two sets per load just to subtract them shows up at simulator
        # call rates.
        correct_by = self.stats.correct_by
        incorrect_by = self.stats.incorrect_by
        for name in decision.confident:
            if name not in correctness:
                missing = set(decision.confident) - set(correctness)
                raise ValueError(
                    f"correctness verdicts missing for confident "
                    f"components: {sorted(missing)}"
                )
            if correctness[name]:
                correct_by[name] += 1
            else:
                incorrect_by[name] += 1

        used = decision.chosen.component if decision.chosen else None
        used_correct = bool(used and correctness[used])
        if used is not None:
            if used_correct:
                self.stats.correct_used += 1
            else:
                self.stats.incorrect_used += 1
        if decision.confident:
            self.monitor.record(
                outcome.pc,
                {n: correctness[n] for n in decision.confident},
                used,
                used_correct,
            )

        # Misprediction feedback: reset confidence of every confident
        # component that was wrong (address predictors need this
        # explicitly; see ComponentPredictor.penalize).
        for name in decision.confident:
            if not correctness[name]:
                component = self.components.get(name)
                if component is not None:
                    component.penalize(outcome)

        if self.config.smart_training:
            self._smart_train(decision, outcome, correctness)
        else:
            self._train_all(outcome)

    def _active(self):
        """``(items, mapping)`` of the non-donor components.

        Cached against the fusion controller's fusion/reversion
        counters -- the only events that change the donor set -- so the
        per-load predict/train loops never rebuild the filtered list.
        """
        fusion = self.fusion
        if fusion is None:
            return self._component_items, self.components
        state = fusion.state
        mark = (state.fusions_performed, state.reversions_performed)
        cached = self._active_cache
        if cached is not None and cached[0] == mark:
            return cached[1], cached[2]
        is_donor = fusion.is_donor
        items = tuple(
            (name, component)
            for name, component in self._component_items
            if not is_donor(name)
        )
        self._active_cache = (mark, items, dict(items))
        return items, self._active_cache[2]

    def _train_all(self, outcome: LoadOutcome) -> None:
        self.stats.train_events += 1
        active, _ = self._active()
        for _, component in active:
            component.train(outcome)
            self.stats.train_operations += 1

    def _smart_train(
        self,
        decision: CompositeDecision,
        outcome: LoadOutcome,
        correctness: dict[str, bool],
    ) -> None:
        """The Section V-D policy.

        No prediction at all -> train everything (minimize warm-up).
        Otherwise train (a) every confident-but-wrong component, to
        evict its entry quickly, and (b) the cheapest correct component
        in the order LVP, CVP, SAP, CAP.  A correct SAP that was not
        chosen for training is invalidated: skipping its training would
        break the stored stride anyway.
        """
        self.stats.train_events += 1
        _, active = self._active()
        if not decision.confident:
            for component in active.values():
                component.train(outcome)
                self.stats.train_operations += 1
            return

        correct = [
            name for name in self._training_order
            if name in decision.confident and correctness[name]
        ]
        to_train = {
            name for name in decision.confident if not correctness[name]
        }
        if correct:
            to_train.add(correct[0])
        for name in to_train:
            if name in active:
                active[name].train(outcome)
                self.stats.train_operations += 1
        if "sap" in correct and "sap" not in to_train and "sap" in active:
            active["sap"].invalidate(outcome)

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------

    def tick_instructions(self, count: int = 1) -> None:
        """Advance the instruction clock; fires epoch boundaries."""
        total = self._instructions_in_epoch + count
        epoch = self.config.epoch_instructions
        if total < epoch:
            # The common case -- once per instruction in the simulator
            # loop -- touches no other attributes.
            self._instructions_in_epoch = total
            return
        while total >= epoch:
            total -= epoch
            self.monitor.end_epoch()
            if self.fusion is not None:
                self.fusion.end_epoch()
        self._instructions_in_epoch = total

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
