"""Accuracy Monitors (Section V-B of the paper).

An AM throttles an entire component predictor when it mispredicts too
much, on top of the per-entry confidence each component already has.
Two variants:

* **M-AM** -- per-component misprediction-rate counters over an epoch;
  a component exceeding 3 MPKP (mispredictions per kilo-prediction) is
  silenced for the whole next epoch.  Silenced components keep
  training and keep being monitored so they can be re-enabled.
* **PC-AM** -- a small direct-mapped, PC-indexed/PC-tagged table of
  per-component correct/incorrect counters.  A component is silenced
  only for PCs where its accuracy is below 95%.  Entries are allocated
  when a value-predicted load triggers a misprediction flush; every
  value-predicted load with an entry updates the counters of *all*
  components that were confident, not just the one whose prediction was
  used.  Counters are 8 bits; when any counter's MSB sets, all eight
  are halved, preserving the correct:incorrect ratio.

A monitor speaks the composite's slot masks: slot ``s`` is the
``s``-th of the ``component_names`` it is built with, bit ``1 << s``
of every mask.  Its counters are per-slot lists and its silenced set a
mask, the shape the vectorized functional backend
(:mod:`repro.harness.functional_vec`) reads and writes in place.
"""

from __future__ import annotations

import abc

from repro.common.bits import fold_bits
from repro.predictors import COMPONENT_NAMES


class AccuracyMonitor(abc.ABC):
    """Common interface: consulted at fetch, updated at validation."""

    @abc.abstractmethod
    def silenced(self, pc: int, confident: int) -> int:
        """The slots of the ``confident`` mask to squash at ``pc``."""

    @abc.abstractmethod
    def record(self, pc: int, confident: int, correct: int,
               chosen: int) -> None:
        """Observe one value-predicted load's validation.

        ``confident`` is the mask of confident slots, ``correct`` the
        subset whose prediction would have been correct, and
        ``chosen`` the slot whose prediction was actually consumed
        (``-1``: none).
        """

    def end_epoch(self) -> None:
        """Hook called at each epoch boundary (used by M-AM)."""

    def storage_bits(self) -> int:
        return 0


class NullAccuracyMonitor(AccuracyMonitor):
    """No throttling (the base composite of Section V-A)."""

    def silenced(self, pc: int, confident: int) -> int:
        return 0

    def record(self, pc, confident, correct, chosen) -> None:
        pass


class MAm(AccuracyMonitor):
    """Epoch-global misprediction-rate monitor.

    Counts *used* predictions (the component whose prediction was
    forwarded) and their mispredictions.  A silenced component produces
    no used predictions, so its rate reads zero at the next epoch end
    and it is re-enabled -- a throttled component gets periodic chances
    to prove itself, matching the epoch-scoped silencing the paper
    describes.
    """

    def __init__(self, mpkp_threshold: float = 3.0,
                 component_names: tuple = COMPONENT_NAMES) -> None:
        self.mpkp_threshold = mpkp_threshold
        self._names = tuple(component_names)
        #: This epoch's used predictions and mispredictions, per slot.
        self._predictions = [0] * len(self._names)
        self._mispredictions = [0] * len(self._names)
        #: The slots silenced for this epoch.
        self._silenced = 0

    def silenced(self, pc: int, confident: int) -> int:
        return self._silenced & confident

    def record(self, pc, confident, correct, chosen) -> None:
        if chosen < 0:
            return
        self._predictions[chosen] += 1
        if not correct >> chosen & 1:
            self._mispredictions[chosen] += 1

    def end_epoch(self) -> None:
        silenced = 0
        predictions = self._predictions
        mispredictions = self._mispredictions
        for slot, count in enumerate(predictions):
            if count and (
                1000.0 * mispredictions[slot] / count > self.mpkp_threshold
            ):
                silenced |= 1 << slot
            # Cleared in place: the functional backend holds the lists.
            predictions[slot] = 0
            mispredictions[slot] = 0
        self._silenced = silenced

    def storage_bits(self) -> int:
        # Two 20-bit counters per component plus a silence bit.
        return len(self._names) * (2 * 20 + 1)


class _PcAmEntry:
    """One PC's 8-bit correct and incorrect counters, per slot."""

    __slots__ = ("tag", "correct", "incorrect")

    def __init__(self, tag: int, width: int) -> None:
        self.tag = tag
        self.correct = [0] * width
        self.incorrect = [0] * width

    def update(self, confident: int, correct: int) -> None:
        """Count one validation of every ``confident`` slot."""
        hits = self.correct
        misses = self.incorrect
        for slot in range(len(hits)):
            if confident >> slot & 1:
                if correct >> slot & 1:
                    hits[slot] += 1
                else:
                    misses[slot] += 1
        # 8-bit counters: halve them all when any MSB sets, preserving
        # the correct:incorrect ratios.
        if max(hits) >= 128 or max(misses) >= 128:
            self.correct = [count >> 1 for count in hits]
            self.incorrect = [count >> 1 for count in misses]

    def squashed(self, confident: int, threshold: float) -> int:
        """The ``confident`` slots whose accuracy here is below
        ``threshold`` (a slot with no history counts as accurate)."""
        squashed = 0
        misses = self.incorrect
        for slot, hits in enumerate(self.correct):
            if confident >> slot & 1:
                total = hits + misses[slot]
                if (hits / total if total else 1.0) < threshold:
                    squashed |= 1 << slot
        return squashed


_TAG_BITS = 10


def _pc_am_index(pc: int, entries: int) -> int:
    """The paper's index hash: ``(PC >> 2) ^ (PC >> 8)``."""
    return ((pc >> 2) ^ (pc >> 8)) & (entries - 1)


def _pc_am_tag(pc: int) -> int:
    """The paper's tag hash: fold of ``(PC >> 2) ^ (PC >> 12)``."""
    return fold_bits((pc >> 2) ^ (pc >> 12), _TAG_BITS)


class PcAm(AccuracyMonitor):
    """Per-PC accuracy monitor (finite, direct-mapped)."""

    def __init__(self, entries: int = 64, accuracy_threshold: float = 0.95,
                 component_names: tuple = COMPONENT_NAMES) -> None:
        if entries & (entries - 1):
            raise ValueError(f"PC-AM entries must be a power of two, got {entries}")
        self.entries = entries
        self.accuracy_threshold = accuracy_threshold
        self._names = tuple(component_names)
        self._table: list[_PcAmEntry | None] = [None] * entries
        # (index, tag) memo: both are pure functions of the PC.
        self._keys: dict[int, tuple[int, int]] = {}

    @property
    def geometry_key(self) -> tuple:
        """What the (index, tag) hashes depend on besides the PC: the
        key of the monitor's per-trace columns
        (:func:`repro.predictors.hash_columns.trace_hash_columns`)."""
        return ("pcam", self.entries)

    def _key(self, pc: int) -> tuple[int, int]:
        key = self._keys.get(pc)
        if key is None:
            key = self._keys[pc] = (
                _pc_am_index(pc, self.entries), _pc_am_tag(pc)
            )
        return key

    def _lookup(self, pc: int) -> _PcAmEntry | None:
        index, tag = self._key(pc)
        entry = self._table[index]
        if entry is not None and entry.tag == tag:
            return entry
        return None

    def silenced(self, pc: int, confident: int) -> int:
        entry = self._lookup(pc)
        if entry is None:
            return 0
        return entry.squashed(confident, self.accuracy_threshold)

    def record(self, pc, confident, correct, chosen) -> None:
        entry = self._lookup(pc)
        if entry is None:
            # Allocate only when the used prediction mispredicted and
            # triggered a recovery (the paper's allocation rule).  The
            # entry starts with zeroed counters -- the triggering
            # misprediction is not pre-charged -- so a single flush on
            # an otherwise-accurate PC does not silence it; only
            # *sustained* inaccuracy after allocation does.
            if chosen >= 0 and not correct >> chosen & 1:
                index, tag = self._key(pc)
                self._table[index] = _PcAmEntry(tag, len(self._names))
            return
        entry.update(confident, correct)

    def storage_bits(self) -> int:
        # tag + two 8-bit counters per component per entry.
        return self.entries * (_TAG_BITS + 2 * 8 * len(self._names))


class InfinitePcAm(PcAm):
    """PC-AM with unbounded capacity (the limit study in Figure 6)."""

    def __init__(self, accuracy_threshold: float = 0.95,
                 component_names: tuple = COMPONENT_NAMES) -> None:
        self.accuracy_threshold = accuracy_threshold
        self._names = tuple(component_names)
        self._map: dict[int, _PcAmEntry] = {}

    def _lookup(self, pc: int) -> _PcAmEntry | None:
        return self._map.get(pc)

    def record(self, pc, confident, correct, chosen) -> None:
        entry = self._map.get(pc)
        if entry is None:
            # Same two-strike allocation rule as the finite PC-AM.
            if chosen >= 0 and not correct >> chosen & 1:
                self._map[pc] = _PcAmEntry(0, len(self._names))
            return
        entry.update(confident, correct)

    def storage_bits(self) -> int:  # pragma: no cover - limit study only
        return len(self._map) * (8 * 8)


def make_accuracy_monitor(
    variant: str,
    pc_am_entries: int = 64,
    m_am_mpkp_threshold: float = 3.0,
    pc_am_accuracy_threshold: float = 0.95,
    component_names: tuple = COMPONENT_NAMES,
) -> AccuracyMonitor:
    """Factory keyed by the config string."""
    if variant == "none":
        return NullAccuracyMonitor()
    if variant == "m-am":
        return MAm(m_am_mpkp_threshold, component_names)
    if variant == "pc-am":
        return PcAm(pc_am_entries, pc_am_accuracy_threshold, component_names)
    if variant == "pc-am-infinite":
        return InfinitePcAm(pc_am_accuracy_threshold, component_names)
    raise ValueError(
        f"unknown accuracy monitor {variant!r}; expected none, m-am, "
        f"pc-am, or pc-am-infinite"
    )
