"""The branch unit: TAGE + ITTAGE + RAS + BTB.

The timing model is trace driven, so the unit's job is to decide, for
each fetched branch, whether the front end would have followed the
correct path (no bubble) or redirected at execute (a misprediction
bubble).  It holds only the serial table state; the history registers
the predictors hash are a pure function of the trace prefix, so the
caller passes each conditional or indirect branch's table hashes in
(:mod:`repro.pipeline.frontend` computes them for a whole trace with
the predictors' ``hash_columns``).

History policy: histories are updated at fetch with the *actual*
outcome.  On the correct path this is identical to speculative update +
repair-on-flush, which is what real hardware converges to, and it is the
standard trace-driven simplification (wrong-path instructions are never
simulated).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRng
from repro.isa.instruction import OpClass
from repro.branch.btb import BranchTargetBuffer
from repro.branch.ittage import IttageConfig, IttagePredictor, IttagePrediction
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import Hashes, TageConfig, TagePredictor, TagePrediction


@dataclass(slots=True)
class BranchOutcome:
    """Fetch-time verdict for one branch."""

    mispredicted: bool
    #: Extra front-end bubble cycles (BTB miss on a taken branch).
    fetch_bubble: int = 0
    tage_ctx: TagePrediction | None = None
    ittage_ctx: IttagePrediction | None = None


class BranchUnit:
    """Front-end branch prediction for the trace-driven core."""

    #: Decode-redirect bubble when a taken branch misses the BTB.
    BTB_MISS_PENALTY = 3

    def __init__(
        self,
        tage_config: TageConfig | None = None,
        ittage_config: IttageConfig | None = None,
        ras_entries: int = 16,
        rng: DeterministicRng | None = None,
        btb_entries: int = 4096,
    ) -> None:
        rng = rng or DeterministicRng(0, "branch-unit")
        self.tage = TagePredictor(tage_config, rng.derive("tage"))
        self.ittage = IttagePredictor(ittage_config, rng.derive("ittage"))
        self.ras = ReturnAddressStack(ras_entries)
        self.btb = BranchTargetBuffer(btb_entries)
        self.conditional_predictions = 0
        self.conditional_mispredictions = 0
        self.indirect_predictions = 0
        self.indirect_mispredictions = 0
        self.return_predictions = 0
        self.return_mispredictions = 0

    # ------------------------------------------------------------------
    # Fetch-time prediction
    # ------------------------------------------------------------------

    def _btb_bubble(self, pc: int, taken: bool) -> int:
        """Front-end bubble for a taken branch missing the BTB."""
        if not taken:
            return 0
        if self.btb.lookup_and_allocate(pc):
            return 0
        return self.BTB_MISS_PENALTY

    def fetch_branch_fields(
        self, pc: int, op: int, taken: bool, target: int, is_call: bool,
        hashes: Hashes | None = None,
    ) -> BranchOutcome:
        """Predict one fetched branch.

        Takes scalar fields (the front-end recorder passes column
        values directly); ``op`` is the raw :class:`OpClass` integer.
        ``hashes`` is the branch's TAGE (conditional) or ITTAGE
        (indirect) ``(indices, tags)`` under the fetch-time histories;
        other branches need none.
        """
        if op == 8:  # OpClass.BRANCH_COND
            ctx = self.tage.predict(pc, hashes)
            bubble = self._btb_bubble(pc, taken) if ctx.taken else 0
            self.conditional_predictions += 1
            mispredicted = ctx.taken != taken
            if mispredicted:
                self.conditional_mispredictions += 1
            return BranchOutcome(
                mispredicted=mispredicted, fetch_bubble=bubble, tage_ctx=ctx
            )

        if op == 9:  # OpClass.BRANCH_DIRECT
            # Direct targets come from the decoder on a BTB miss.
            bubble = self._btb_bubble(pc, taken)
            if is_call:
                self.ras.push(pc + 4)
            return BranchOutcome(mispredicted=False, fetch_bubble=bubble)

        if op == 11:  # OpClass.BRANCH_RETURN
            predicted = self.ras.pop()
            bubble = self._btb_bubble(pc, taken)
            self.return_predictions += 1
            mispredicted = predicted != target
            if mispredicted:
                self.return_mispredictions += 1
            return BranchOutcome(
                mispredicted=mispredicted, fetch_bubble=bubble
            )

        if op == 10:  # OpClass.BRANCH_INDIRECT
            ctx = self.ittage.predict(pc, hashes)
            bubble = self._btb_bubble(pc, taken)
            if is_call:
                self.ras.push(pc + 4)
            self.indirect_predictions += 1
            mispredicted = ctx.target != target
            if mispredicted:
                self.indirect_mispredictions += 1
            return BranchOutcome(
                mispredicted=mispredicted, fetch_bubble=bubble,
                ittage_ctx=ctx,
            )

        raise ValueError(f"not a branch: {OpClass(op)!r}")

    # ------------------------------------------------------------------
    # Resolution-time training
    # ------------------------------------------------------------------

    def resolve_fields(
        self, pc: int, taken: bool, target: int, outcome: BranchOutcome
    ) -> None:
        """Train the predictors when the branch executes."""
        if outcome.tage_ctx is not None:
            self.tage.train(pc, taken, outcome.tage_ctx)
        if outcome.ittage_ctx is not None:
            self.ittage.train(pc, target, outcome.ittage_ctx)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def mpki_numerator(self) -> int:
        """Total redirect-causing mispredictions so far."""
        return (
            self.conditional_mispredictions
            + self.indirect_mispredictions
            + self.return_mispredictions
        )

    def accuracy(self) -> float:
        total = (
            self.conditional_predictions
            + self.indirect_predictions
            + self.return_predictions
        )
        if total == 0:
            return 1.0
        return 1.0 - self.mpki_numerator / total
