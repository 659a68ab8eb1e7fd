"""Trace container with summary statistics and (de)serialization.

A :class:`Trace` is an immutable-by-convention dynamic instruction
stream plus provenance metadata (workload name, generator seed).  It
carries up to two views of the same stream:

* the **columnar view** -- a packed
  :class:`repro.isa.columns.TraceColumns` struct-of-arrays.  Trace
  generators emit straight into it (through a
  :class:`repro.isa.columns.ColumnSink`), the on-disk trace store
  serializes it (:mod:`repro.workloads.store`), and every consumer in
  the package reads it: the simulator's core loop, the functional
  backend, attribution, the load classifier and the serve event
  stream;
* the **object view** -- a ``list`` of
  :class:`repro.isa.instruction.Instruction` records, for hand-built
  traces and inspection.  A trace built from objects packs its columns
  once (:meth:`pack`); a columnar trace materializes the objects only
  when :attr:`instructions` is first read.

Traces can also be saved to and restored from a compact JSON-lines
format (:meth:`save`/:meth:`load`) for portable interchange.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN, TraceColumns
from repro.isa.instruction import (
    Instruction,
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
    REG_NONE,
)


@dataclass(frozen=True)
class TraceStats:
    """Aggregate operation counts for a trace."""

    instructions: int
    loads: int
    stores: int
    branches: int
    conditional_branches: int
    taken_branches: int
    predictable_loads: int
    unique_load_pcs: int

    @property
    def load_fraction(self) -> float:
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.instructions if self.instructions else 0.0


class Trace:
    """A dynamic instruction stream plus provenance.

    ``initial_memory`` is a snapshot of memory contents *before* the
    first traced instruction (generators populate arrays and tables up
    front).  The timing model uses it to resolve predicted-address
    D-cache probes exactly, including wrong-address coincidences and
    conflicting in-flight stores.  :meth:`save` persists it by default
    (pass ``include_memory=False`` for a smaller file).

    Construct with packed ``columns`` (what generators and the trace
    store produce), a hand-built instruction list, or both; at least
    one is required.  The missing view is derived lazily
    (:attr:`instructions` materializes from columns on first access;
    :meth:`pack` builds columns from objects).
    """

    __slots__ = (
        "name", "seed", "metadata", "initial_memory",
        "_instructions", "_columns",
        # Data derived from the trace (repro.common.tracememo) is
        # weak-keyed on it, so it dies with the trace.
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        instructions: list[Instruction] | None = None,
        seed: int = 0,
        metadata: dict | None = None,
        initial_memory: object | None = None,
        columns: TraceColumns | None = None,
    ) -> None:
        if instructions is None and columns is None:
            raise ValueError(
                "a Trace needs an instruction list, packed columns, or both"
            )
        self.name = name
        self.seed = seed
        self.metadata = metadata if metadata is not None else {}
        self.initial_memory = initial_memory
        self._instructions = instructions
        self._columns = columns

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """The object view (materialized from columns on first access)."""
        if self._instructions is None:
            self._instructions = self._columns.materialize()
        return self._instructions

    @property
    def columns(self) -> TraceColumns | None:
        """The packed columnar view, or ``None`` until :meth:`pack`."""
        return self._columns

    def pack(self) -> TraceColumns:
        """Build (once) and return the columnar view of this trace."""
        if self._columns is None:
            self._columns = TraceColumns.from_instructions(
                self._instructions
            )
        return self._columns

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, instructions={len(self)}, "
            f"seed={self.seed}, columnar={self._columns is not None})"
        )

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx]

    def loads(self) -> Iterator[Instruction]:
        """Iterate over just the load instructions, in program order."""
        return (inst for inst in self.instructions if inst.is_load)

    def stats(self) -> TraceStats:
        cols = self.pack()
        count = cols.op.count
        load_pcs = [pc for pc, op in zip(cols.pc, cols.op) if op == OP_LOAD]
        return TraceStats(
            instructions=len(cols),
            loads=len(load_pcs),
            stores=count(OP_STORE),
            branches=sum(
                count(op) for op in range(OP_BRANCH_FIRST, OP_BRANCH_LAST + 1)
            ),
            conditional_branches=count(int(OpClass.BRANCH_COND)),
            taken_branches=sum(
                1 for op, flags in zip(cols.op, cols.flags)
                if OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST
                and flags & FLAG_TAKEN
            ),
            predictable_loads=sum(
                1 for flags in cols.flags if flags & FLAG_PREDICTABLE
            ),
            unique_load_pcs=len(set(load_pcs)),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: str | Path, include_memory: bool = True) -> None:
        """Write the trace as JSON lines.

        Layout: a header line, an optional initial-memory line (sparse
        hex word map -- needed for exact PAQ-probe resolution when the
        trace is replayed), then one line per instruction.
        """
        path = Path(path)
        memory_map = None
        if include_memory and self.initial_memory is not None:
            memory_map = self.initial_memory.to_word_map()
        with path.open("w", encoding="utf-8") as fh:
            header = {
                "name": self.name,
                "seed": self.seed,
                "metadata": self.metadata,
                "count": len(self.instructions),
                "has_memory": memory_map is not None,
            }
            fh.write(json.dumps(header) + "\n")
            if memory_map is not None:
                fh.write(json.dumps(memory_map) + "\n")
            for inst in self.instructions:
                fh.write(json.dumps(_encode(inst)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        from repro.memory.image import MemoryImage

        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            initial_memory = None
            if header.get("has_memory"):
                initial_memory = MemoryImage.from_word_map(
                    json.loads(fh.readline())
                )
            instructions = [_decode(json.loads(line)) for line in fh]
        if len(instructions) != header["count"]:
            raise ValueError(
                f"trace {path} is truncated: header says {header['count']} "
                f"instructions, file holds {len(instructions)}"
            )
        return cls(
            name=header["name"],
            instructions=instructions,
            seed=header["seed"],
            metadata=header.get("metadata", {}),
            initial_memory=initial_memory,
        )

    @classmethod
    def from_instructions(
        cls, name: str, instructions: Iterable[Instruction], seed: int = 0
    ) -> "Trace":
        return cls(name=name, instructions=list(instructions), seed=seed)


_DEFAULTS = {
    "dest": REG_NONE, "srcs": (), "addr": 0, "size": 0, "value": 0,
    "taken": False, "target": 0, "no_predict": False, "is_call": False,
    "kernel": "",
}


def _encode(inst: Instruction) -> dict:
    """Encode one instruction, omitting default-valued fields."""
    record: dict = {"pc": inst.pc, "op": int(inst.op)}
    for name, default in _DEFAULTS.items():
        value = getattr(inst, name)
        if name == "srcs":
            value = tuple(value)
        if value != default:
            record[name] = list(value) if name == "srcs" else value
    return record


def _decode(record: dict) -> Instruction:
    kwargs = dict(record)
    kwargs["op"] = OpClass(kwargs["op"])
    if "srcs" in kwargs:
        kwargs["srcs"] = tuple(kwargs["srcs"])
    return Instruction(**kwargs)
