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

Traces are born as columns: the synthesis kernels append each
instruction's fields to a :class:`ColumnSink`, whose
:meth:`ColumnSink.finish` interns the kernel tags, builds each
``array`` in one constructor call and range-checks every column once
(the checks :class:`repro.isa.instruction.Instruction` makes per
object).  The object view is for hand-built traces:
:meth:`TraceColumns.from_instructions` feeds objects through the same
sink, and :meth:`TraceColumns.materialize` reconstructs the exact
instruction list, which the object-path oracles in ``tests/oracles``
replay to prove the columnar simulator loop byte-identical
(``tests/test_columnar_equivalence.py``).

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
    NUM_ARCH_REGS,
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
    REG_NONE,
    VALID_ACCESS_SIZES,
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

#: Inclusive value range of each column typecode.
_TYPECODE_RANGE = {
    "Q": (0, (1 << 64) - 1),
    "I": (0, (1 << 32) - 1),
    "H": (0, (1 << 16) - 1),
    "B": (0, (1 << 8) - 1),
    "b": (-(1 << 7), (1 << 7) - 1),
}

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
        """Pack a hand-built instruction sequence into columns.

        A thin feed into :class:`ColumnSink`, so hand-built and
        generated traces share one packing, interning and range-check
        path.
        """
        sink = ColumnSink()
        append = sink.append
        for inst in instructions:
            flags = 0
            if inst.taken:
                flags |= FLAG_TAKEN
            if inst.no_predict:
                flags |= FLAG_NO_PREDICT
            if inst.is_call:
                flags |= FLAG_IS_CALL
            append(inst.pc, int(inst.op), inst.dest, inst.srcs, inst.addr,
                   inst.size, inst.value, inst.target, flags, inst.kernel)
        return sink.finish()

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


class ColumnSink:
    """The growing columns of one instruction stream, before packing.

    Trace generators append each instruction straight into these
    per-field lists: one entry per instruction in ``pc``, ``op``,
    ``dest``, ``addr``, ``size``, ``value``, ``target``, ``flags`` and
    ``kernels`` (the kernel tag), the source registers as CSR
    (``src_regs`` extended by the operands, ``src_offsets`` appended
    the running total).  ``flags`` carries ``FLAG_TAKEN``,
    ``FLAG_NO_PREDICT`` and ``FLAG_IS_CALL``; :meth:`finish` derives
    ``FLAG_PREDICTABLE``.  ``len()`` is the instruction count so far.
    """

    __slots__ = (
        "pc", "op", "dest", "addr", "size", "value", "target", "flags",
        "src_offsets", "src_regs", "kernels",
    )

    def __init__(self) -> None:
        self.pc: list[int] = []
        self.op: list[int] = []
        self.dest: list[int] = []
        self.addr: list[int] = []
        self.size: list[int] = []
        self.value: list[int] = []
        self.target: list[int] = []
        self.flags: list[int] = []
        self.src_offsets: list[int] = [0]
        self.src_regs: list[int] = []
        self.kernels: list[str] = []

    def __len__(self) -> int:
        return len(self.pc)

    def append(
        self, pc: int, op: int, dest: int = REG_NONE,
        srcs: Sequence[int] = (), addr: int = 0, size: int = 0,
        value: int = 0, target: int = 0, flags: int = 0, kernel: str = "",
    ) -> None:
        """Append one instruction (``op`` is an :class:`OpClass` code)."""
        self.pc.append(pc)
        self.op.append(op)
        self.dest.append(dest)
        self.addr.append(addr)
        self.size.append(size)
        self.value.append(value)
        self.target.append(target)
        self.flags.append(flags)
        self.src_regs.extend(srcs)
        self.src_offsets.append(len(self.src_regs))
        self.kernels.append(kernel)

    def finish(self, length: int | None = None) -> TraceColumns:
        """Truncate to ``length`` instructions and pack the columns.

        Kernel tags are interned in order of first appearance (id 0 is
        the empty tag), each ``array`` is built in one constructor call,
        and every column is range-checked once: the checks
        :class:`Instruction` makes per object, plus the column widths.
        Raises :class:`ValueError` on the first bad value.
        """
        if length is not None and length < len(self.pc):
            for name in _PER_INSTRUCTION:
                del getattr(self, name)[length:]
            del self.src_offsets[length + 1:]
            del self.src_regs[self.src_offsets[-1]:]
        n = len(self.pc)
        if any(len(getattr(self, name)) != n for name in _PER_INSTRUCTION) or (
            len(self.src_offsets) != n + 1
            or self.src_offsets[-1] != len(self.src_regs)
        ):
            raise ValueError("column sink lists have inconsistent lengths")
        kernel_names = list(dict.fromkeys(("", *self.kernels)))
        if len(kernel_names) > 1 << 16:
            raise ValueError(
                "more than 65535 distinct kernel tags in one trace"
            )
        kernel_index = {name: i for i, name in enumerate(kernel_names)}
        cols = TraceColumns()
        for name, typecode in COLUMN_SPECS:
            if name == "kernel_ids":
                values = list(map(kernel_index.__getitem__, self.kernels))
            else:
                values = getattr(self, name)
            setattr(cols, name, _packed(name, typecode, values))
        cols.kernel_names = kernel_names
        op = np.frombuffer(cols.op, dtype=np.uint8)
        _validate(cols, op)
        flags = np.frombuffer(cols.flags, dtype=np.uint8) & (
            0xFF ^ FLAG_PREDICTABLE
        )
        flags[(op == OP_LOAD) & (flags & FLAG_NO_PREDICT == 0)] |= (
            FLAG_PREDICTABLE
        )
        cols.flags = array("B", flags.tobytes())
        return cols


#: The :class:`ColumnSink` lists holding one entry per instruction.
_PER_INSTRUCTION = (
    "pc", "op", "dest", "addr", "size", "value", "target", "flags",
    "kernels",
)


def _packed(name: str, typecode: str, values: list[int]) -> array:
    """``array(typecode, values)``, naming the first out-of-range value."""
    try:
        return array(typecode, values)
    except OverflowError:
        low, high = _TYPECODE_RANGE[typecode]
        bad = next(v for v in values if not low <= v <= high)
        raise ValueError(
            f"instruction field {name}={bad} does not fit its "
            f"{typecode!r} column ({low}..{high})"
        ) from None


def _validate(cols: TraceColumns, op: np.ndarray) -> None:
    """Reject columns holding an instruction :class:`Instruction` would
    refuse to construct."""
    pc = np.frombuffer(cols.pc, dtype=np.uint64)
    dest = np.frombuffer(cols.dest, dtype=np.int8)
    size = np.frombuffer(cols.size, dtype=np.uint8)
    regs = np.frombuffer(cols.src_regs, dtype=np.int8)
    is_load = op == OP_LOAD
    memory = is_load | (op == OP_STORE)
    for bad, values, message in (
        (op >= len(OpClass), op, "bad opclass {}"),
        (pc & 0b11 != 0, pc, "PC must be non-negative and 4-byte "
                             "aligned: {:#x}"),
        ((dest < REG_NONE) | (dest >= NUM_ARCH_REGS), dest,
         "bad destination register {}"),
        ((regs < 0) | (regs >= NUM_ARCH_REGS), regs,
         "bad source register {}"),
        (memory & ~np.isin(size, VALID_ACCESS_SIZES), size,
         f"memory op size must be one of {VALID_ACCESS_SIZES}, got {{}}"),
        (is_load & (dest == REG_NONE), dest,
         "loads must have a destination register, got {}"),
    ):
        if bad.any():
            raise ValueError(message.format(int(values[np.argmax(bad)])))
