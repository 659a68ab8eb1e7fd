"""Tests for the branch target buffer."""

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.unit import BranchUnit
from repro.isa.instruction import Instruction, OpClass

from oracles.branch import LiveBranchUnit
from oracles.core_loop import fetch_branch, resolve


class TestBtbStructure:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, associativity=2)
        assert btb.lookup_and_allocate(0x1000) is False
        assert btb.lookup_and_allocate(0x1000) is True

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(entries=2, associativity=2)  # one set
        btb.lookup_and_allocate(0x1000)
        btb.lookup_and_allocate(0x2000)
        btb.lookup_and_allocate(0x1000)   # refresh
        btb.lookup_and_allocate(0x3000)   # evicts 0x2000
        assert btb.lookup_and_allocate(0x1000) is True
        assert btb.lookup_and_allocate(0x2000) is False

    def test_hit_rate(self):
        btb = BranchTargetBuffer(64, 2)
        btb.lookup_and_allocate(0x1000)
        btb.lookup_and_allocate(0x1000)
        assert btb.hit_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=10, associativity=3)

    def test_storage_positive(self):
        assert BranchTargetBuffer().storage_bits() > 0


class TestBranchUnitIntegration:
    def test_first_taken_branch_bubbles_then_warm(self):
        unit = LiveBranchUnit()
        inst = Instruction(pc=0x1000, op=OpClass.BRANCH_DIRECT, taken=True,
                           target=0x2000)
        first = fetch_branch(unit, inst)
        second = fetch_branch(unit, inst)
        assert first.fetch_bubble == BranchUnit.BTB_MISS_PENALTY
        assert second.fetch_bubble == 0

    def test_not_taken_branch_never_bubbles(self):
        unit = LiveBranchUnit()
        inst = Instruction(pc=0x1000, op=OpClass.BRANCH_COND, taken=False,
                           target=0x2000)
        for _ in range(5):
            outcome = fetch_branch(unit, inst)
            resolve(unit, inst, outcome)
            assert outcome.fetch_bubble == 0

    def test_predicted_not_taken_skips_btb(self):
        """A cold conditional branch predicted not-taken must not pay a
        BTB bubble even when it is actually taken (the front end did
        not try to follow it; the cost lands on the mispredict)."""
        unit = LiveBranchUnit()
        inst = Instruction(pc=0x1000, op=OpClass.BRANCH_COND, taken=True,
                           target=0x2000)
        outcome = fetch_branch(unit, inst)
        if outcome.mispredicted:
            assert outcome.fetch_bubble == 0
