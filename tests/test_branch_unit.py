"""Tests for the integrated branch unit (TAGE + ITTAGE + RAS)."""

import pytest

from repro.branch.unit import BranchUnit
from repro.isa.instruction import Instruction, OpClass

from oracles.core_loop import fetch_branch, resolve


def _cond(pc, taken):
    return Instruction(pc=pc, op=OpClass.BRANCH_COND, taken=taken,
                       target=0x100)


class TestConditional:
    def test_learns_biased_branch(self):
        unit = BranchUnit()
        for _ in range(200):
            inst = _cond(0x1000, True)
            outcome = fetch_branch(unit, inst)
            resolve(unit, inst, outcome)
        assert unit.accuracy() > 0.9

    def test_counts_mispredictions(self):
        unit = BranchUnit()
        inst = _cond(0x1000, True)
        for _ in range(50):
            outcome = fetch_branch(unit, inst)
            resolve(unit, inst, outcome)
        assert unit.conditional_predictions == 50
        assert unit.mpki_numerator == unit.conditional_mispredictions


class TestUnconditional:
    def test_direct_never_mispredicts(self):
        unit = BranchUnit()
        inst = Instruction(pc=0x1000, op=OpClass.BRANCH_DIRECT, taken=True,
                           target=0x2000)
        assert not fetch_branch(unit, inst).mispredicted

    def test_non_branch_rejected(self):
        unit = BranchUnit()
        with pytest.raises(ValueError):
            fetch_branch(unit, Instruction(pc=0x1000, op=OpClass.INT_ALU))


class TestCallsAndReturns:
    def test_call_return_pairing(self):
        unit = BranchUnit()
        call = Instruction(pc=0x1000, op=OpClass.BRANCH_DIRECT, taken=True,
                           target=0x9000, is_call=True)
        ret = Instruction(pc=0x9010, op=OpClass.BRANCH_RETURN, taken=True,
                          target=0x1004)
        fetch_branch(unit, call)
        assert not fetch_branch(unit, ret).mispredicted

    def test_mismatched_return_detected(self):
        unit = BranchUnit()
        ret = Instruction(pc=0x9010, op=OpClass.BRANCH_RETURN, taken=True,
                          target=0x1234)
        assert fetch_branch(unit, ret).mispredicted  # empty RAS -> 0

    def test_nested_calls(self):
        unit = BranchUnit()
        for depth in range(4):
            call = Instruction(pc=0x1000 + depth * 0x100,
                               op=OpClass.BRANCH_DIRECT, taken=True,
                               target=0x9000, is_call=True)
            fetch_branch(unit, call)
        for depth in reversed(range(4)):
            ret = Instruction(pc=0x9010, op=OpClass.BRANCH_RETURN, taken=True,
                              target=0x1004 + depth * 0x100)
            assert not fetch_branch(unit, ret).mispredicted


class TestIndirect:
    def test_learns_monomorphic_target(self):
        unit = BranchUnit()
        inst = Instruction(pc=0x3000, op=OpClass.BRANCH_INDIRECT, taken=True,
                           target=0x7000)
        for _ in range(20):
            outcome = fetch_branch(unit, inst)
            resolve(unit, inst, outcome)
        outcome = fetch_branch(unit, inst)
        assert not outcome.mispredicted

    def test_history_updated_for_value_predictors(self):
        unit = BranchUnit()
        unit.note_memory_op(0x5004)
        assert unit.histories.load_path != 0
        assert unit.histories.load_path < (1 << 32)
