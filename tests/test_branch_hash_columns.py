"""TAGE/ITTAGE hash columns against the scalar reference, branch by branch.

The front-end recorder hashes every conditional branch's TAGE and every
indirect branch's ITTAGE indices and tags for a whole trace at once
(:meth:`TagePredictor.hash_columns`, :meth:`IttagePredictor.hash_columns`)
and hands them to the branch unit one branch at a time.  Here every row
it hands over must equal the scalar ``fold_bits`` reference of
``tests/oracles/branch.py`` computed from a :class:`HistorySet` walked
through the same trace: on the smoke workloads, on traces without
conditional or without indirect branches, on traces shorter than the
longest history, under non-default geometries, and on fuzzed programs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.history import HistorySet
from repro.branch.ittage import IttageConfig, IttagePredictor
from repro.branch.tage import TageConfig, TagePredictor
from repro.branch.unit import BranchUnit
from repro.harness.presets import SMOKE
from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.pipeline import frontend
from repro.workloads.generator import generate_trace

from oracles.branch import ittage_hashes, tage_hashes

#: Geometries beside the defaults: one small TAGE table, histories far
#: wider than 64 bits, one-bit ITTAGE tags.
GEOMETRIES = (
    (TageConfig(), IttageConfig()),
    (TageConfig(num_tables=1, entries_per_table=256, tag_bits=8),
     IttageConfig(num_tables=1, entries_per_table=64, tag_bits=1,
                  min_history=70, max_history=70)),
    (TageConfig(num_tables=4, tag_bits=64, min_history=3, max_history=300),
     IttageConfig(num_tables=3, min_history=9, max_history=200)),
)


def recorded_hashes(trace, tage_config, ittage_config) -> list:
    """The hashes the recorder hands the branch unit, one per branch."""
    seen = []
    fetch = BranchUnit.fetch_branch_fields

    def spy(self, pc, op, taken, target, is_call, hashes=None):
        seen.append(hashes)
        return fetch(self, pc, op, taken, target, is_call, hashes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BranchUnit, "fetch_branch_fields", spy)
        frontend._record(trace, (tage_config, ittage_config, 16, 0), None, 1)
    return seen


def reference_hashes(trace, tage_config, ittage_config) -> list:
    """The same rows from the scalar reference, one branch at a time."""
    tage = TagePredictor(tage_config)
    ittage = IttagePredictor(ittage_config)
    h = HistorySet()
    rows = []
    for inst in trace.instructions:
        if inst.op is OpClass.BRANCH_COND:
            rows.append(tage_hashes(tage, inst.pc, h.direction, h.path))
            h.push_branch(inst.pc, inst.taken)
        elif inst.op.is_branch:
            rows.append(
                ittage_hashes(ittage, inst.pc, h.direction, h.path)
                if inst.op is OpClass.BRANCH_INDIRECT else None
            )
            h.push_unconditional(inst.pc)
    return rows


def _assert_match(trace, tage_config=TageConfig(),
                  ittage_config=IttageConfig()) -> list:
    rows = recorded_hashes(trace, tage_config, ittage_config)
    assert rows == reference_hashes(trace, tage_config, ittage_config)
    return rows


def _program(ops) -> Trace:
    """A trace of ``(op, pc, taken)`` steps; loads and ALU ops between
    branches leave the branch histories alone."""
    out = []
    for op, pc, taken in ops:
        if op is OpClass.LOAD:
            out.append(Instruction(pc=pc, op=op, dest=1, addr=0x8000,
                                   size=8, value=7))
        elif op is OpClass.INT_ALU:
            out.append(Instruction(pc=pc, op=op, dest=2))
        else:
            out.append(Instruction(
                pc=pc, op=op, taken=taken or op is not OpClass.BRANCH_COND,
                target=pc + 0x40,
                is_call=op in (OpClass.BRANCH_DIRECT,
                               OpClass.BRANCH_INDIRECT) and (pc & 0x10) != 0,
            ))
    return Trace("hash-columns", out)


class TestSmokeWorkloads:
    @pytest.mark.parametrize("workload", SMOKE.workloads)
    def test_rows_match_the_reference(self, workload):
        trace = generate_trace(workload, 5000, 0)
        rows = _assert_match(trace)
        assert any(row is not None for row in rows)

    def test_histories_wider_than_64_bits_are_covered(self):
        trace = generate_trace("gcc2k", 5000, 0)
        conds = sum(1 for inst in trace.instructions
                    if inst.op is OpClass.BRANCH_COND)
        assert conds > TageConfig().max_history
        for tage_config, ittage_config in GEOMETRIES[1:]:
            _assert_match(trace, tage_config, ittage_config)


class TestEdgeCases:
    def test_no_conditional_branches(self):
        trace = _program([(OpClass.BRANCH_INDIRECT, 0x1000 + 4 * i, True)
                          for i in range(40)])
        rows = _assert_match(trace)
        assert len(rows) == 40 and all(rows)

    def test_no_indirect_branches(self):
        trace = _program([(OpClass.BRANCH_COND, 0x2000 + 8 * i, i % 3 == 0)
                          for i in range(40)])
        rows = _assert_match(trace)
        assert len(rows) == 40 and all(rows)

    def test_no_branches_at_all(self):
        trace = _program([(OpClass.LOAD, 0x3000, False)] * 10)
        assert _assert_match(trace) == []

    def test_fewer_branches_than_the_longest_history(self):
        steps = [(OpClass.BRANCH_COND, 0x4000 + 4 * i, i % 2 == 0)
                 for i in range(20)]
        steps += [(OpClass.BRANCH_INDIRECT, 0x5000, True)] * 3
        trace = _program(steps)
        assert len(trace) < TageConfig().max_history
        _assert_match(trace)

    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    def test_geometries(self, geometry):
        trace = generate_trace("coremark", 3000, 0)
        _assert_match(trace, *GEOMETRIES[geometry])


_step = st.tuples(
    st.sampled_from((
        OpClass.BRANCH_COND, OpClass.BRANCH_COND, OpClass.BRANCH_COND,
        OpClass.BRANCH_DIRECT, OpClass.BRANCH_INDIRECT,
        OpClass.BRANCH_RETURN, OpClass.LOAD, OpClass.INT_ALU,
    )),
    st.integers(0, (1 << 48) - 1).map(lambda pc: pc & ~0b11),
    st.booleans(),
)

#: Programs per fuzzed test: 60 in tier-1, 300 under the ``fuzz-wide``
#: profile registered in ``tests/conftest.py``.
FUZZ_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "fuzz-wide" else 60
)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    body=st.lists(_step, min_size=1, max_size=40),
    repeats=st.integers(1, 12),
    tail=st.lists(_step, max_size=20),
    geometry=st.integers(0, len(GEOMETRIES) - 1),
)
def test_fuzzed_programs_match_the_reference(body, repeats, tail, geometry):
    _assert_match(_program(body * repeats + tail), *GEOMETRIES[geometry])
