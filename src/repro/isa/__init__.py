"""Instruction and trace model.

The evaluation is trace driven: a trace carries everything the timing
model needs per instruction -- PC, operation class, register
dependencies, memory address/size/value for loads and stores, and
direction/target for branches.  Workload generators emit it straight
into packed columns (:class:`~repro.isa.columns.ColumnSink`);
hand-built traces are lists of
:class:`~repro.isa.instruction.Instruction` records.
"""

from repro.isa.instruction import Instruction, OpClass, REG_NONE
from repro.isa.trace import Trace, TraceStats

__all__ = ["Instruction", "OpClass", "REG_NONE", "Trace", "TraceStats"]
