"""Tests for the columnar trace representation (repro.isa.columns).

The struct-of-arrays layout must be a lossless encoding of the
object-based instruction stream: pack -> materialize is exact, the
byte-buffer round trip is exact, and every structural invariant the
trace store relies on is enforced by ``from_buffers``.
"""

import itertools

import pytest

from repro.common.rng import DeterministicRng
from repro.isa.columns import (
    FLAG_IS_CALL,
    FLAG_NO_PREDICT,
    FLAG_PREDICTABLE,
    FLAG_TAKEN,
    ColumnSink,
    TraceColumns,
)
from repro.isa.instruction import Instruction, OP_STORE, OpClass, REG_NONE
from repro.workloads import generator
from repro.workloads.builder import ProgramBuilder
from repro.workloads.generator import clear_trace_caches, generate_trace
from repro.workloads.kernels import (
    KERNEL_CLASSES,
    ConstantPoolKernel,
    HotFlagKernel,
    Kernel,
    StridedSumKernel,
)


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


def _faulty_kernel(fault):
    """A kernel class whose every burst ends with ``fault(kernel, out)``
    after ``budget`` well-formed ALU instructions."""

    class FaultyKernel(Kernel):
        name = "faulty"

        def __init__(self, builder, **params):
            super().__init__(builder)
            self.code = builder.alloc_code(4)
            self.data = builder.alloc_data(64)
            self.reg = builder.alloc_regs(1)[0]

        def emit(self, out, budget):
            start = len(out)
            for _ in range(budget):
                self._alu(out, self.code, self.reg, (self.reg,))
            fault(self, out)
            return len(out) - start

    return FaultyKernel


def _generate_with(monkeypatch, kernel_class, length=2000):
    """Generate a workload whose every kernel is ``kernel_class``."""
    monkeypatch.setattr(generator, "KERNEL_CLASSES", {
        name: kernel_class for name in KERNEL_CLASSES
    })
    return generator._generate("coremark", length, 0)


#: Instructions :class:`Instruction` refuses to construct, or that do
#: not fit a column, each emitted by a kernel the way kernels emit.
FAULTS = {
    "misaligned_pc": lambda k, out: k._alu(out, k.code + 2, k.reg),
    "negative_pc": lambda k, out: k._alu(out, -4, k.reg),
    "dest_31": lambda k, out: k._alu(out, k.code, 31),
    "dest_minus_2": lambda k, out: k._alu(out, k.code, -2),
    "dest_past_int8": lambda k, out: k._alu(out, k.code, 200),
    "src_31": lambda k, out: k._alu(out, k.code, k.reg, (31,)),
    "src_negative": lambda k, out: k._alu(out, k.code, k.reg, (-1,)),
    "load_size_3": lambda k, out: k._load(out, k.code, k.reg, k.data, 3),
    "store_size_16": lambda k, out: k._store(out, k.code, k.data, 16, 1),
    "load_without_dest": lambda k, out: k._load(
        out, k.code, REG_NONE, k.data, 8),
    "negative_addr": lambda k, out: k._load(out, k.code, k.reg, -8, 8),
    "value_past_u64": lambda k, out: out.append(
        k.code, OP_STORE, REG_NONE, (), k.data, 8, 1 << 64),
    "target_past_u64": lambda k, out: k._branch(
        out, k.code, True, 1 << 64),
}


class TestSinkValidation:
    """Generation rejects what the object path rejects."""

    def test_well_formed_kernel_generates(self, monkeypatch):
        trace = _generate_with(monkeypatch, _faulty_kernel(
            lambda k, out: k._load(out, k.code, k.reg, k.data, 4)))
        assert len(trace) == 2000
        assert trace.columns.kernel_names == ["", "faulty"]

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_fails_generation(self, monkeypatch, fault):
        with pytest.raises(ValueError):
            _generate_with(monkeypatch, _faulty_kernel(FAULTS[fault]))

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_fails_from_instructions(self, fault):
        """The hand-built path shares the sink's checks: a well-formed
        object mutated to the fault's fields is refused at packing."""
        sink = ColumnSink()
        kernel = _faulty_kernel(FAULTS[fault])(
            ProgramBuilder(DeterministicRng(3)))
        FAULTS[fault](kernel, sink)
        inst = Instruction(pc=0, op=OpClass.INT_ALU)
        for field, values in (
            ("pc", sink.pc), ("dest", sink.dest), ("addr", sink.addr),
            ("size", sink.size), ("value", sink.value),
            ("target", sink.target),
        ):
            setattr(inst, field, values[0])
        inst.op = OpClass(sink.op[0])
        inst.srcs = tuple(sink.src_regs)
        with pytest.raises(ValueError):
            TraceColumns.from_instructions([inst])

    def test_65536th_kernel_tag_fails_generation(self, monkeypatch):
        tags = itertools.count()

        class ManyTagsKernel(Kernel):
            name = "many_tags"

            def __init__(self, builder, **params):
                super().__init__(builder)
                self.code = builder.alloc_code(1)

            def emit(self, out, budget):
                for _ in range(budget):
                    self.name = f"tag{next(tags)}"
                    self._alu(out, self.code, 0)
                return budget

        trace = _generate_with(monkeypatch, ManyTagsKernel, length=65535)
        assert len(trace.columns.kernel_names) == 65536
        with pytest.raises(ValueError, match="65535 distinct kernel tags"):
            _generate_with(monkeypatch, ManyTagsKernel, length=65536)


def _emit_bursts():
    """One burst each of three kernels; the sink and each burst's end."""
    builder = ProgramBuilder(DeterministicRng(5))
    kernels = [
        ConstantPoolKernel(builder),
        HotFlagKernel(builder, atomic_fraction=1.0),
        StridedSumKernel(builder),
    ]
    sink = ColumnSink()
    ends = []
    for kernel in kernels:
        kernel.emit(sink, 100)
        ends.append(len(sink))
    return sink, ends


class TestSinkTruncation:
    @pytest.mark.parametrize("cut", [
        "length_1", "mid_burst", "last_kernel_past_length",
    ])
    def test_truncation_matches_the_object_path(self, cut):
        full = _emit_bursts()[0].finish().materialize()
        sink, ends = _emit_bursts()
        length = {
            "length_1": 1,
            "mid_burst": ends[0] + 5,
            "last_kernel_past_length": ends[1],
        }[cut]
        cols = sink.finish(length)
        assert len(cols) == length
        objects = cols.materialize()
        assert objects == full[:length]
        repacked = TraceColumns.from_instructions(objects)
        assert cols.kernel_names == repacked.kernel_names
        assert cols.to_buffers() == repacked.to_buffers()
        if cut == "last_kernel_past_length":
            assert "strided_sum" not in cols.kernel_names
            assert "strided_sum" in {inst.kernel for inst in full}

    def test_atomic_loads_are_not_predictable(self):
        cols = _emit_bursts()[0].finish()
        atomics = [
            flags for op, flags in zip(cols.op, cols.flags)
            if op == OpClass.LOAD and flags & FLAG_NO_PREDICT
        ]
        assert atomics
        assert not any(flags & FLAG_PREDICTABLE for flags in atomics)

    @pytest.mark.parametrize("length", [1, 777])
    def test_generated_truncation_matches_the_object_path(self, length):
        cols = generate_trace("coremark", length, 2).columns
        repacked = TraceColumns.from_instructions(cols.materialize())
        assert cols.kernel_names == repacked.kernel_names
        assert cols.to_buffers() == repacked.to_buffers()
