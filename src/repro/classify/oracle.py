"""Infinite-resource load pattern classification (Figure 2).

The paper buckets every dynamic load into one of three ordered,
exclusive patterns, using perfect memory of past values/addresses:

* **Pattern-1** (LVP proxy): the load PC highly correlates with the
  value -- operationally, the instance returns the same value as the
  previous instance of the same static load;
* **Pattern-2** (SAP proxy): the PC highly correlates with the address
  -- the instance's address continues the stride established by the
  previous two instances (stride zero included);
* **Pattern-3** (CVP/CAP proxy): everything else, including the first
  instances of a static load.

Patterns are prioritized value-before-address and context-agnostic
before context-aware, mirroring the paper's preference order.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from repro.isa.columns import FLAG_PREDICTABLE
from repro.isa.trace import Trace


class LoadPattern(enum.Enum):
    """The paper's three ordered, exclusive dynamic-load patterns."""

    PATTERN_1 = "pattern-1 (PC->value, LVP)"
    PATTERN_2 = "pattern-2 (PC->address, SAP)"
    PATTERN_3 = "pattern-3 (context, CVP/CAP)"


class _PcState:
    __slots__ = ("last_value", "last_addr", "stride", "instances")

    def __init__(self) -> None:
        self.last_value: int | None = None
        self.last_addr: int | None = None
        self.stride: int | None = None
        self.instances = 0


@dataclass
class ClassificationResult:
    """Dynamic-load counts per pattern (one trace or aggregated)."""

    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, pattern: LoadPattern) -> float:
        return self.counts[pattern] / self.total if self.total else 0.0

    def merge(self, other: "ClassificationResult") -> None:
        self.counts.update(other.counts)

    def as_dict(self) -> dict[str, float]:
        return {p.value: self.fraction(p) for p in LoadPattern}


class OracleClassifier:
    """Stateful classifier; feed loads in program order."""

    def __init__(self) -> None:
        self._state: dict[int, _PcState] = {}
        self.result = ClassificationResult()

    def observe(self, pc: int, addr: int, value: int) -> LoadPattern:
        state = self._state.get(pc)
        if state is None:
            state = self._state[pc] = _PcState()
        pattern = LoadPattern.PATTERN_3
        if state.instances >= 1 and value == state.last_value:
            pattern = LoadPattern.PATTERN_1
        elif (
            state.stride is not None
            and addr == state.last_addr + state.stride
        ):
            pattern = LoadPattern.PATTERN_2

        if state.last_addr is not None:
            state.stride = addr - state.last_addr
        state.last_addr = addr
        state.last_value = value
        state.instances += 1
        self.result.counts[pattern] += 1
        return pattern


def classify_trace(trace: Trace) -> ClassificationResult:
    """Classify every predictable load of one trace."""
    classifier = OracleClassifier()
    cols = trace.pack()
    observe = classifier.observe
    for pc, addr, value, flags in zip(
        cols.pc, cols.addr, cols.value, cols.flags
    ):
        if flags & FLAG_PREDICTABLE:
            observe(pc, addr, value)
    return classifier.result
