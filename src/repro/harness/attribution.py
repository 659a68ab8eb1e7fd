"""Per-kernel / per-component attribution of predictor behaviour.

Answers "where does the coverage come from, and who mispredicts?" for
one predictor on one workload: every used prediction is attributed to
the synthesis kernel that produced the load (via the trace's ``kernel``
tags) and to the component that supplied the prediction.  This is the
tool behind the per-pattern analyses of Sections IV and V.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.columns import FLAG_PREDICTABLE
from repro.isa.instruction import OP_LOAD
from repro.isa.trace import Trace
from repro.pipeline.core import simulate
from repro.pipeline.result import SimResult
from repro.pipeline.vp import ValuePredictorHost
from repro.predictors.types import CHOSEN, CONFIDENT, PC


@dataclass
class Attribution:
    """Counters keyed by (kernel, component)."""

    result: SimResult
    used_correct: Counter = field(default_factory=Counter)
    used_incorrect: Counter = field(default_factory=Counter)
    confident_unused: Counter = field(default_factory=Counter)
    loads_by_kernel: Counter = field(default_factory=Counter)

    def coverage_by_kernel(self) -> dict[str, float]:
        """Fraction of each kernel's loads that used a prediction."""
        used = Counter()
        for (kernel, _), count in self.used_correct.items():
            used[kernel] += count
        for (kernel, _), count in self.used_incorrect.items():
            used[kernel] += count
        return {
            kernel: used[kernel] / total
            for kernel, total in self.loads_by_kernel.items()
            if total
        }

    def accuracy_by_component(self) -> dict[str, float]:
        correct = Counter()
        incorrect = Counter()
        for (_, component), count in self.used_correct.items():
            correct[component] += count
        for (_, component), count in self.used_incorrect.items():
            incorrect[component] += count
        return {
            component: correct[component] / (
                correct[component] + incorrect[component]
            )
            for component in set(correct) | set(incorrect)
        }

    def top_mispredictors(self, n: int = 5) -> list[tuple[tuple, int]]:
        return self.used_incorrect.most_common(n)


class _AttributingHost:
    """Wrap a predictor host, logging decisions against kernel tags."""

    def __init__(self, inner: ValuePredictorHost, pc_kernel: dict[int, str],
                 attribution: Attribution) -> None:
        self._inner = inner
        self._pc_kernel = pc_kernel
        self._attribution = attribution
        self.slot_names = inner.slot_names
        self.address_slots = inner.address_slots
        self.predict = inner.predict

    def validate_and_train(self, decision, addr, size, value,
                           correct) -> None:
        kernel = self._pc_kernel.get(decision[PC], "?")
        confident = decision[CONFIDENT]
        chosen = decision[CHOSEN]
        for slot, name in enumerate(self.slot_names):
            if not confident >> slot & 1:
                continue
            if slot == chosen:
                bucket = (
                    self._attribution.used_correct
                    if correct >> slot & 1
                    else self._attribution.used_incorrect
                )
                bucket[(kernel, name)] += 1
            else:
                self._attribution.confident_unused[(kernel, name)] += 1
        self._inner.validate_and_train(decision, addr, size, value, correct)

    def tick_instructions(self, count: int) -> None:
        self._inner.tick_instructions(count)

    def storage_bits(self) -> int:
        return self._inner.storage_bits()


def attribute(trace: Trace, predictor: ValuePredictorHost) -> Attribution:
    """Run the timing model with attribution bookkeeping."""
    cols = trace.pack()
    tags = [name or "?" for name in cols.kernel_names]
    pc_kernel: dict[int, str] = {}
    attribution = Attribution(result=None)  # type: ignore[arg-type]
    loads_by_kernel = attribution.loads_by_kernel
    for pc, op, flags, kid in zip(
        cols.pc, cols.op, cols.flags, cols.kernel_ids
    ):
        if op == OP_LOAD:
            pc_kernel[pc] = tags[kid]
            if flags & FLAG_PREDICTABLE:
                loads_by_kernel[tags[kid]] += 1
    host = _AttributingHost(predictor, pc_kernel, attribution)
    attribution.result = simulate(trace, host)
    return attribution
