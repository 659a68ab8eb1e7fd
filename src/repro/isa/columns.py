"""Struct-of-arrays (columnar) trace representation.

A :class:`TraceColumns` holds one packed column per instruction field:
``array('Q')``/``array('b')``/``array('B')`` vectors for pc, opclass,
destination register, memory address/size/value, branch target, and a
flags bitmask, plus a CSR-style (offsets + flat registers) encoding of
the variable-length source-register tuples and an interned table of
kernel tags.  The layout is what the restructured simulator hot loop
iterates directly (:meth:`repro.pipeline.core.CoreModel.run`) and what
the on-disk trace store serializes verbatim
(:mod:`repro.workloads.store`): loading a cached trace is a handful of
``array.frombytes`` calls instead of hundreds of thousands of object
constructions.

The object-based :class:`repro.isa.instruction.Instruction` path stays
the reference oracle; :meth:`TraceColumns.materialize` reconstructs the
exact instruction list (bit-identical fields, including validation),
and the randomized equivalence tests in
``tests/test_columnar_equivalence.py`` prove the columnar simulator
loop byte-identical to the object-path oracle in ``tests/oracles``.

:meth:`TraceColumns.dataflow` derives, once per trace, the columns the
core loop schedules from: a kind code per instruction and, per source
operand, the index of the instruction that produces it
(:class:`Dataflow`).
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.isa.instruction import (
    Instruction,
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
    REG_NONE,
)

#: Bit assignments of the per-instruction ``flags`` column.
FLAG_TAKEN = 1 << 0
FLAG_NO_PREDICT = 1 << 1
FLAG_IS_CALL = 1 << 2
#: Precomputed ``is_load and not no_predict`` so the hot loop tests one
#: bit instead of two columns.
FLAG_PREDICTABLE = 1 << 3

#: Instruction kind codes of :attr:`Dataflow.kind`.  Loads and stores
#: share the ``KIND_MEMORY`` bit, and a store adds bit 0 to it.
KIND_OTHER = 0
KIND_BRANCH = 1
KIND_MEMORY = 2
KIND_LOAD = KIND_MEMORY
KIND_STORE = KIND_MEMORY | 1
#: Added to the kind of an instruction with more than two source
#: operands, whose third and later producers are in :attr:`Dataflow.wide`.
KIND_WIDE = 4

_KIND_OF_OP = np.zeros(len(OpClass), dtype=np.uint8)
_KIND_OF_OP[OP_BRANCH_FIRST:OP_BRANCH_LAST + 1] = KIND_BRANCH
_KIND_OF_OP[OP_LOAD] = KIND_LOAD
_KIND_OF_OP[OP_STORE] = KIND_STORE

_U64_MAX = (1 << 64) - 1

#: (attribute, typecode) pairs for the fixed-width columns, in the
#: order they are serialized by :meth:`TraceColumns.to_buffers`.
COLUMN_SPECS = (
    ("pc", "Q"),
    ("op", "B"),
    ("dest", "b"),
    ("addr", "Q"),
    ("size", "B"),
    ("value", "Q"),
    ("target", "Q"),
    ("flags", "B"),
    ("src_offsets", "I"),
    ("src_regs", "b"),
    ("kernel_ids", "H"),
)


def _check_u64(name: str, value: int) -> int:
    if not 0 <= value <= _U64_MAX:
        raise ValueError(
            f"instruction field {name}={value} does not fit an unsigned "
            "64-bit column"
        )
    return value


class Dataflow:
    """One trace's scheduling columns, derived from its packed columns.

    ``kind[i]`` is instruction *i*'s ``KIND_*`` code.  ``src0[i]`` and
    ``src1[i]`` are the producers of its first and second source
    operands: the index of the last earlier instruction whose
    destination is that register, or ``n`` (the trace length) when no
    earlier instruction writes it or the operand does not exist.  An
    instruction that reads its own destination reads the previous
    writer's value.  ``wide`` maps each instruction with the
    ``KIND_WIDE`` bit to the producers of its third and later operands.
    """

    __slots__ = ("kind", "src0", "src1", "wide")

    def __init__(self, columns: TraceColumns) -> None:
        n = len(columns)
        offsets = np.frombuffer(columns.src_offsets, dtype=np.uint32)
        starts = offsets[:-1].astype(np.int64)
        counts = offsets[1:] - offsets[:-1]
        regs = np.frombuffer(columns.src_regs, dtype=np.int8).astype(np.int64)
        dest = np.frombuffer(columns.dest, dtype=np.int8)
        # Keys order register accesses by register, then instruction:
        # ``reg * stride + i``.  A stable sort of the int8 destinations
        # orders the write keys (an instruction with no destination
        # gets a negative key, below every read key).  An operand's
        # producer is the last write key below its read key when that
        # key is the same register's, i.e. when it is not below the
        # register's base; the leading -1 keeps every lookup in range.
        stride = n + 1
        order = np.argsort(dest, kind="stable")
        write_keys = np.concatenate((
            [-1], dest[order].astype(np.int64) * stride + order,
        ))
        base = regs * stride
        read_keys = base + np.repeat(np.arange(n), counts)
        found = write_keys[np.searchsorted(write_keys, read_keys) - 1] - base
        producer = np.where(found >= 0, found, n)
        kind = _KIND_OF_OP[np.frombuffer(columns.op, dtype=np.uint8)]
        wide = counts > 2
        kind[wide] |= KIND_WIDE
        self.kind = array("B", kind.tobytes())
        self.src0 = _producers(n, producer, starts, counts > 0)
        self.src1 = _producers(n, producer, starts + 1, counts > 1)
        self.wide: dict[int, tuple[int, ...]] = {
            i: tuple(producer[offsets[i] + 2:offsets[i + 1]].tolist())
            for i in np.flatnonzero(wide).tolist()
        }


def _producers(n, producer, at, mask) -> array:
    """An ``array('i')`` of ``n`` producers: ``producer[at[i]]`` where
    ``mask[i]``, else ``n``."""
    column = np.full(n, n, dtype=np.intc)
    column[mask] = producer[at[mask]]
    return array("i", column.tobytes())

class TraceColumns:
    """Parallel packed columns for one dynamic instruction stream.

    All columns have one entry per instruction except ``src_offsets``
    (``n + 1`` entries; instruction *i*'s source registers are
    ``src_regs[src_offsets[i]:src_offsets[i + 1]]``) and ``src_regs``
    (one entry per source operand across the whole trace).
    ``kernel_ids`` indexes ``kernel_names``, the interned table of
    kernel tags (id 0 is always the empty tag).
    """

    __slots__ = (
        "pc", "op", "dest", "addr", "size", "value", "target", "flags",
        "src_offsets", "src_regs", "kernel_ids", "kernel_names",
        "_dataflow",
    )

    def __init__(self) -> None:
        self.pc = array("Q")
        self.op = array("B")
        self.dest = array("b")
        self.addr = array("Q")
        self.size = array("B")
        self.value = array("Q")
        self.target = array("Q")
        self.flags = array("B")
        self.src_offsets = array("I", (0,))
        self.src_regs = array("b")
        self.kernel_ids = array("H")
        self.kernel_names: list[str] = [""]
        self._dataflow: Dataflow | None = None

    def __len__(self) -> int:
        return len(self.pc)

    def dataflow(self) -> Dataflow:
        """The trace's :class:`Dataflow` columns, built on first use and
        kept with these columns (so they die with the trace)."""
        if self._dataflow is None:
            self._dataflow = Dataflow(self)
        return self._dataflow

    # ------------------------------------------------------------------
    # Packing and unpacking
    # ------------------------------------------------------------------

    @classmethod
    def from_instructions(
        cls, instructions: Iterable[Instruction]
    ) -> "TraceColumns":
        """Pack an instruction sequence into columns (validating ranges).

        Fields accumulate into plain lists and each ``array`` is built
        in one C-level constructor call at the end -- bulk construction
        is ~2x faster than 11 per-instruction ``array.append`` calls,
        and packing is a third of cold trace generation.
        """
        pcs: list[int] = []
        ops: list[int] = []
        dests: list[int] = []
        addrs: list[int] = []
        sizes: list[int] = []
        values: list[int] = []
        targets: list[int] = []
        flag_bits: list[int] = []
        offsets: list[int] = [0]
        src_regs: list[int] = []
        kids: list[int] = []
        pc_a, op_a, dest_a = pcs.append, ops.append, dests.append
        addr_a, size_a = addrs.append, sizes.append
        value_a, target_a = values.append, targets.append
        flags_a, offsets_a, kernel_a = (
            flag_bits.append, offsets.append, kids.append,
        )
        srcs_extend = src_regs.extend
        kernel_index = {"": 0}
        kernel_names = [""]
        total_srcs = 0
        for inst in instructions:
            op = int(inst.op)
            pc_a(inst.pc)
            op_a(op)
            dest_a(inst.dest)
            addr_a(inst.addr)
            size_a(inst.size)
            value_a(inst.value)
            target_a(inst.target)
            flags = 0
            if inst.taken:
                flags |= FLAG_TAKEN
            if inst.no_predict:
                flags |= FLAG_NO_PREDICT
            if inst.is_call:
                flags |= FLAG_IS_CALL
            if op == OP_LOAD and not inst.no_predict:
                flags |= FLAG_PREDICTABLE
            flags_a(flags)
            srcs_extend(inst.srcs)
            total_srcs += len(inst.srcs)
            offsets_a(total_srcs)
            kid = kernel_index.get(inst.kernel)
            if kid is None:
                kid = kernel_index[inst.kernel] = len(kernel_names)
                if kid > 0xFFFF:
                    raise ValueError(
                        "more than 65535 distinct kernel tags in one trace"
                    )
                kernel_names.append(inst.kernel)
            kernel_a(kid)
        for name, col in (
            ("pc", pcs), ("addr", addrs), ("value", values),
            ("target", targets),
        ):
            if col and not 0 <= min(col) <= max(col) <= _U64_MAX:
                for item in col:  # cold path: name the offending value
                    _check_u64(name, item)
        cols = cls()
        cols.pc = array("Q", pcs)
        cols.op = array("B", ops)
        cols.dest = array("b", dests)
        cols.addr = array("Q", addrs)
        cols.size = array("B", sizes)
        cols.value = array("Q", values)
        cols.target = array("Q", targets)
        cols.flags = array("B", flag_bits)
        cols.src_offsets = array("I", offsets)
        cols.src_regs = array("b", src_regs)
        cols.kernel_ids = array("H", kids)
        cols.kernel_names = kernel_names
        return cols

    def materialize(self) -> list[Instruction]:
        """Reconstruct the exact :class:`Instruction` list (the oracle
        representation) from the columns."""
        out: list[Instruction] = []
        append = out.append
        offsets = self.src_offsets
        src_regs = self.src_regs
        kernel_names = self.kernel_names
        for i in range(len(self.pc)):
            flags = self.flags[i]
            append(Instruction(
                pc=self.pc[i],
                op=OpClass(self.op[i]),
                dest=self.dest[i],
                srcs=tuple(src_regs[offsets[i]:offsets[i + 1]]),
                addr=self.addr[i],
                size=self.size[i],
                value=self.value[i],
                taken=bool(flags & FLAG_TAKEN),
                target=self.target[i],
                no_predict=bool(flags & FLAG_NO_PREDICT),
                is_call=bool(flags & FLAG_IS_CALL),
                kernel=kernel_names[self.kernel_ids[i]],
            ))
        return out

    # ------------------------------------------------------------------
    # Raw-buffer (de)serialization, used by the on-disk trace store
    # ------------------------------------------------------------------

    def to_buffers(self) -> tuple[dict, list[bytes]]:
        """Describe + dump the columns as raw byte buffers.

        Returns ``(meta, buffers)``: ``meta`` records the instruction
        count, native byte order, and per-column typecode/itemsize/
        byte-length (so a reader on a machine with different array
        layouts detects the mismatch instead of misparsing), and
        ``buffers`` holds one native-endian ``bytes`` object per column
        in :data:`COLUMN_SPECS` order.
        """
        columns = []
        buffers = []
        for name, typecode in COLUMN_SPECS:
            arr: array = getattr(self, name)
            raw = arr.tobytes()
            columns.append({
                "name": name,
                "typecode": typecode,
                "itemsize": arr.itemsize,
                "bytes": len(raw),
                "items": len(arr),
            })
            buffers.append(raw)
        meta = {
            "count": len(self),
            "byteorder": sys.byteorder,
            "columns": columns,
            "kernel_names": list(self.kernel_names),
        }
        return meta, buffers

    @classmethod
    def from_buffers(
        cls, meta: dict, buffers: Sequence[bytes]
    ) -> "TraceColumns":
        """Rebuild columns from :meth:`to_buffers` output.

        Raises :class:`ValueError` on any structural mismatch (column
        set, item sizes, byte order, lengths) -- the trace store treats
        that as corruption and regenerates.
        """
        cols = cls.__new__(cls)
        cols._dataflow = None
        described = meta.get("columns", [])
        if [c.get("name") for c in described] != [n for n, _ in COLUMN_SPECS]:
            raise ValueError("columnar payload does not match COLUMN_SPECS")
        if len(buffers) != len(COLUMN_SPECS):
            raise ValueError(
                f"expected {len(COLUMN_SPECS)} column buffers, "
                f"got {len(buffers)}"
            )
        if meta.get("byteorder") != sys.byteorder:
            raise ValueError(
                f"columnar payload byte order {meta.get('byteorder')!r} "
                f"does not match native {sys.byteorder!r}"
            )
        count = meta.get("count", -1)
        for (name, typecode), desc, raw in zip(
            COLUMN_SPECS, described, buffers
        ):
            arr = array(typecode)
            if desc.get("typecode") != typecode or (
                desc.get("itemsize") != arr.itemsize
            ):
                raise ValueError(
                    f"column {name!r} layout mismatch: stored "
                    f"{desc.get('typecode')!r}/{desc.get('itemsize')}, "
                    f"native {typecode!r}/{arr.itemsize}"
                )
            if desc.get("bytes") != len(raw) or len(raw) % arr.itemsize:
                raise ValueError(f"column {name!r} is truncated")
            arr.frombytes(raw)
            setattr(cols, name, arr)
        kernel_names = meta.get("kernel_names")
        if not isinstance(kernel_names, list) or not kernel_names:
            raise ValueError("columnar payload missing kernel_names")
        cols.kernel_names = [str(n) for n in kernel_names]
        n = len(cols.pc)
        if count != n:
            raise ValueError(
                f"columnar payload count mismatch: header {count}, pc {n}"
            )
        per_inst = ("op", "dest", "addr", "size", "value", "target",
                    "flags", "kernel_ids")
        for name in per_inst:
            if len(getattr(cols, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        if len(cols.src_offsets) != n + 1 or (
            n and cols.src_offsets[n] != len(cols.src_regs)
        ):
            raise ValueError("source-register CSR columns are inconsistent")
        if max(cols.kernel_ids, default=-1) >= len(cols.kernel_names):
            raise ValueError("kernel id out of range")
        return cols
