"""Abstract base class shared by the component predictors.

Every component speaks the plain-int contract of
:mod:`repro.predictors.types`: ``predict`` takes a load's six fields
and returns one int or ``None``; ``train``, ``penalize`` and
``invalidate`` take the same fields plus ``(addr, size, value)``.

Inside a :class:`~repro.composite.composite.CompositePredictor`, the
paper's four components (LVP, SAP, CVP, CAP) are not called per load:
the composite's bound step (:mod:`repro.composite.step`) reads and
writes their bank columns itself, with their table indices and tags
from the per-trace :mod:`repro.predictors.hash_columns` in a timing
run.  Their methods stay the reference that step is tested against,
the path of every other component and of fused tables, and the
lone-component API (``table5_listing1``).
"""

from __future__ import annotations

import abc

from repro.common.fpc import FpcVector
from repro.common.rng import DeterministicRng
from repro.predictors.types import PredictionKind


class ComponentPredictor(abc.ABC):
    """One component of the composite load value predictor.

    Subclasses define the class attributes below and implement
    ``predict`` / ``train``.  The base class owns FPC confidence
    arithmetic, storage accounting, and the capacity hooks that table
    fusion uses.

    The prediction/training contract mirrors the hardware: ``predict``
    is called at fetch with the load's fetch-time fields, ``train`` at
    execute with the *same* fields plus the load's
    ``(addr, size, value)``, so both operations index the same table
    entries.  The fields are ``pc``; ``ordinal``, the load's index
    among the trace's predictable loads during a whole-trace timing
    run (``-1`` anywhere else; the composite's step reads hash columns
    by it, a component hashes the raw histories); the raw
    ``direction``, ``path`` and ``load_path`` histories; and
    ``inflight``, the number of older in-flight instances of the same
    static load (SAP advances its stride by it, the enhancement the
    paper borrows from EVES).
    """

    #: Short name used in reports ("lvp", "sap", "cvp", "cap", ...).
    name: str
    #: Tie-break rank among components with equal (kind, context)
    #: class; lower is earlier in selection/training orders.
    rank: int = 0
    #: VALUE predictors produce values directly; ADDRESS predictors
    #: produce an address, with ``log2(size)`` in its two low bits, that
    #: the PAQ resolves against the D-cache.
    kind: PredictionKind
    #: Whether the predictor consumes program (branch/load path) history.
    context_aware: bool
    #: Storage cost of one table entry, from Table IV.
    bits_per_entry: int
    #: FPC confidence vector and high-confidence threshold, Table IV.
    fpc_vector: FpcVector
    confidence_threshold: int

    def __init__(self, entries: int, rng: DeterministicRng | None = None) -> None:
        if entries <= 0:
            raise ValueError(f"{type(self).__name__} needs entries > 0, got {entries}")
        self.base_entries = entries
        self._rng = (rng or DeterministicRng(0)).coins(self.name)
        self._float_probs = tuple(float(p) for p in self.fpc_vector.probabilities)
        self._conf_max = self.fpc_vector.maximum

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        """The high-confidence prediction for a fetched load, or None."""

    @abc.abstractmethod
    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Learn from an executed load: its fetch-time fields and its
        address, size and architectural value."""

    def invalidate(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Drop state for this load (smart training uses this on SAP)."""

    def penalize(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        """Reset confidence after this predictor's prediction proved wrong.

        For value predictors ordinary training already resets confidence
        (the stored value mismatches), so the default is a no-op.
        Address predictors override this: their training compares
        *addresses*, which may still match when the speculative value
        was wrong (a conflicting in-flight store), so the misprediction
        feedback must reset confidence explicitly -- the paper's smart
        training relies on "a trained misprediction resets confidence".
        """

    @abc.abstractmethod
    def _tables(self) -> list:
        """The predictor's :class:`BankedTable` instances, for fusion."""

    # ------------------------------------------------------------------
    # Confidence arithmetic
    # ------------------------------------------------------------------

    def _bump_confidence(self, confidence: list[int], index: int) -> None:
        """Probabilistic (FPC) confidence increment on one entry of a
        bank's confidence column."""
        level = confidence[index]
        if level >= self._conf_max:
            return
        p = self._float_probs[level]
        if p >= 1.0 or self._rng.coin(p):
            confidence[index] = level + 1

    # ------------------------------------------------------------------
    # Capacity management (composite table fusion)
    # ------------------------------------------------------------------

    def grant_extra_banks(self, banks: int) -> None:
        """Receiver side of fusion: add ``banks`` donated table copies."""
        for table in self._tables():
            table.add_banks(banks)

    def revoke_extra_banks(self) -> None:
        """Unfusion: drop donated banks, keep original contents."""
        for table in self._tables():
            table.remove_extra_banks()

    def flush(self) -> None:
        """Invalidate all state (donor side of fusion)."""
        for table in self._tables():
            table.flush()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def total_entries(self) -> int:
        """Current entry count, including any donated banks."""
        return sum(table.total_entries for table in self._tables())

    def storage_bits(self) -> int:
        """Storage of the predictor's *own* allocation (donated banks
        are accounted to their original owner)."""
        return self.base_entries * self.bits_per_entry

    def storage_kib(self) -> float:
        return self.storage_bits() / 8 / 1024

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(entries={self.base_entries}, "
            f"storage={self.storage_kib():.2f}KiB)"
        )
