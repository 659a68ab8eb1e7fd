"""Tests for the columnar trace representation (repro.isa.columns).

The struct-of-arrays layout must be a lossless encoding of the
object-based instruction stream: pack -> materialize is exact, the
byte-buffer round trip is exact, and every structural invariant the
trace store relies on is enforced by ``from_buffers``.
"""

import pytest

from repro.isa.columns import (
    FLAG_IS_CALL,
    FLAG_NO_PREDICT,
    FLAG_PREDICTABLE,
    FLAG_TAKEN,
    TraceColumns,
)
from repro.isa.instruction import Instruction, OpClass, REG_NONE
from repro.workloads.generator import clear_trace_caches, generate_trace


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_trace_caches()
    yield
    clear_trace_caches()


def sample_instructions():
    return [
        Instruction(pc=0x1000, op=OpClass.INT_ALU, dest=3, srcs=(1, 2)),
        Instruction(
            pc=0x1004, op=OpClass.LOAD, dest=4, srcs=(3,),
            addr=0x8000, size=8, value=0xFFFF_FFFF_FFFF_FFFF,
            kernel="scan",
        ),
        Instruction(
            pc=0x1008, op=OpClass.LOAD, dest=5, srcs=(3,),
            addr=0x8008, size=4, value=7, no_predict=True,
        ),
        Instruction(
            pc=0x100C, op=OpClass.STORE, dest=REG_NONE, srcs=(4, 5),
            addr=0x9000, size=8, value=123,
        ),
        Instruction(
            pc=0x1010, op=OpClass.BRANCH_COND, dest=REG_NONE, srcs=(5,),
            taken=True, target=0x1000,
        ),
        Instruction(
            pc=0x1014, op=OpClass.BRANCH_DIRECT, dest=REG_NONE, srcs=(),
            taken=True, target=0x2000, is_call=True, kernel="scan",
        ),
        Instruction(pc=0x2000, op=OpClass.NOP, dest=REG_NONE, srcs=()),
        Instruction(
            pc=0x2004, op=OpClass.BRANCH_RETURN, dest=REG_NONE, srcs=(),
            taken=True, target=0x1018,
        ),
    ]


class TestRoundTrip:
    def test_materialize_is_exact(self):
        insts = sample_instructions()
        cols = TraceColumns.from_instructions(insts)
        assert cols.materialize() == insts

    def test_generated_workload_roundtrip(self):
        trace = generate_trace("mcf", 2000, seed=1)
        cols = trace.columns
        assert cols is not None
        assert cols.materialize() == trace.instructions

    def test_len_matches(self):
        insts = sample_instructions()
        assert len(TraceColumns.from_instructions(insts)) == len(insts)

    def test_flags_encode_instruction_booleans(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        assert cols.flags[1] & FLAG_PREDICTABLE
        assert cols.flags[2] & FLAG_NO_PREDICT
        assert not (cols.flags[2] & FLAG_PREDICTABLE)
        assert cols.flags[4] & FLAG_TAKEN
        assert cols.flags[5] & FLAG_IS_CALL

    def test_kernel_tags_interned(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        mats = cols.materialize()
        assert mats[1].kernel == "scan"
        assert mats[5].kernel == "scan"
        assert mats[0].kernel == ""


class TestBufferSerialization:
    def test_buffer_roundtrip_is_exact(self):
        insts = sample_instructions()
        cols = TraceColumns.from_instructions(insts)
        meta, buffers = cols.to_buffers()
        rebuilt = TraceColumns.from_buffers(meta, buffers)
        assert rebuilt.materialize() == insts

    def test_meta_counts_and_sizes(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        meta, buffers = cols.to_buffers()
        assert meta["count"] == len(cols)
        for desc, buf in zip(meta["columns"], buffers):
            assert desc["bytes"] == len(buf)

    def test_truncated_buffer_rejected(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        meta, buffers = cols.to_buffers()
        buffers[0] = buffers[0][:-1]
        with pytest.raises(ValueError):
            TraceColumns.from_buffers(meta, buffers)

    def test_wrong_itemsize_rejected(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        meta, buffers = cols.to_buffers()
        meta["columns"][0]["itemsize"] = 2
        with pytest.raises(ValueError):
            TraceColumns.from_buffers(meta, buffers)

    def test_inconsistent_csr_rejected(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        meta, buffers = cols.to_buffers()
        names = [d["name"] for d in meta["columns"]]
        idx = names.index("src_regs")
        buffers[idx] = buffers[idx] + buffers[idx][:1]
        meta["columns"][idx]["bytes"] += 1
        meta["columns"][idx]["items"] += 1
        with pytest.raises(ValueError):
            TraceColumns.from_buffers(meta, buffers)

    def test_out_of_range_kernel_id_rejected(self):
        cols = TraceColumns.from_instructions(sample_instructions())
        meta, buffers = cols.to_buffers()
        # Drop the last interned tag: the ids still naming it point
        # past the table.
        assert len(meta["kernel_names"]) == 2
        meta["kernel_names"] = meta["kernel_names"][:1]
        with pytest.raises(ValueError, match="kernel id out of range"):
            TraceColumns.from_buffers(meta, buffers)
        meta["kernel_names"] = ["", "scan"]
        assert TraceColumns.from_buffers(meta, buffers).materialize() == (
            sample_instructions()
        )


class TestValidation:
    def test_out_of_range_value_rejected(self):
        bad = [Instruction(
            pc=0x1000, op=OpClass.LOAD, dest=1, srcs=(),
            addr=0x8000, size=8, value=1 << 64,
        )]
        with pytest.raises(ValueError):
            TraceColumns.from_instructions(bad)

    def test_out_of_range_target_rejected(self):
        bad = [Instruction(
            pc=0x1000, op=OpClass.BRANCH_DIRECT, dest=REG_NONE, srcs=(),
            taken=True, target=1 << 64,
        )]
        with pytest.raises(ValueError):
            TraceColumns.from_instructions(bad)
