"""Trace-synthesis kernels, one per load behaviour family.

Each kernel owns a block of static PCs (predictors are PC-indexed), a
set of registers, and data regions; ``emit`` appends one *burst* of
dynamic instructions (typically a loop execution).  Every load's value
is read from the builder's functional memory image and every store
writes it, so traces are memory-consistent by construction.

Kernel-to-pattern map (Section IV-A of the paper):

=================  ========  =======================================
Kernel             Pattern   Best predictor(s)
=================  ========  =======================================
ConstantPool       P1        all four (heavy overlap, like Fig. 4)
MemsetScan         P1/P2     Listing 1: all four, different warm-ups
StridedSum         P2        SAP only (values differ per element)
PeriodicPattern    P3        CVP and/or CAP (history-keyed values)
ContextAddress     P3        CAP only (per-call-site address, values
                             drift so value predictors fail)
StackFrames        P2        SAP/CAP via D-cache probe (values change
                             every call; address is frame-constant)
GatherIndirect     P2+P3     SAP on the index stream; data gather is
                             unpredictable
PointerChase       P3-hard   none (serialized load-to-load chain)
RandomLoads        P3-hard   none (uniform random addresses)
BranchyAlu         --        no loads; TAGE noise + ILP filler
=================  ========  =======================================
"""

from __future__ import annotations

import abc

import numpy as np

from repro.common.bits import mask
from repro.isa.columns import (
    FLAG_IS_CALL,
    FLAG_NO_PREDICT,
    FLAG_TAKEN,
    ColumnSink,
)
from repro.isa.instruction import OP_LOAD, OP_STORE, OpClass, REG_NONE
from repro.workloads.builder import STACK_BASE, ProgramBuilder

_VALUE_MASK = mask(64)
_OP_INT_ALU = int(OpClass.INT_ALU)
_OP_BRANCH_COND = int(OpClass.BRANCH_COND)
_OP_BRANCH_DIRECT = int(OpClass.BRANCH_DIRECT)
_OP_BRANCH_RETURN = int(OpClass.BRANCH_RETURN)
_GOLDEN = 0x9E3779B97F4A7C15


def _scramble(i: int) -> int:
    """Cheap deterministic value maker (distinct per index).

    Values must not form an arithmetic sequence: array data that is a
    perfect linear ramp would be globally stride-value-predictable,
    which real data is not.  A multiply-xorshift hash breaks that.
    """
    x = ((i + 1) * _GOLDEN) & _VALUE_MASK
    x ^= x >> 29
    return (x * 0xBF58476D1CE4E5B9) & _VALUE_MASK


def _scramble_column(indices: np.ndarray) -> np.ndarray:
    """:func:`_scramble` over a column of indices, as ``uint64``.

    ``uint64`` array arithmetic wraps modulo 2**64, which is what the
    scalar's masks do, so element *i* equals ``_scramble(indices[i])``.
    """
    x = (indices.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    x ^= x >> np.uint64(29)
    return x * np.uint64(0xBF58476D1CE4E5B9)


class Kernel(abc.ABC):
    """Base class: instruction-emission helpers over the builder."""

    name: str
    #: Upper bound on static copies per workload.  Context-aware
    #: patterns need many dynamic sightings per (PC, history) context,
    #: so splitting their dynamics across many static copies starves
    #: CVP/CAP warm-up.
    max_copies: int = 4

    def __init__(self, builder: ProgramBuilder) -> None:
        self.b = builder
        self.rng = builder.rng.derive(
            f"{self.name}/{builder.next_kernel_id()}"
        )

    @abc.abstractmethod
    def emit(self, out: ColumnSink, budget: int) -> int:
        """Append roughly ``budget`` instructions; return the count."""

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _load(self, out, pc, dest, addr, size, srcs=(), flags=0) -> None:
        out.append(pc, OP_LOAD, dest, srcs, addr, size,
                   self.b.memory.read(addr, size), 0, flags, self.name)

    def _store(self, out, pc, addr, size, value, srcs=()) -> None:
        value &= mask(size * 8)
        self.b.memory.write(addr, size, value)
        out.append(pc, OP_STORE, REG_NONE, srcs, addr, size, value, 0, 0,
                   self.name)

    def _alu(self, out, pc, dest, srcs=()) -> None:
        out.append(pc, _OP_INT_ALU, dest, srcs, 0, 0, 0, 0, 0, self.name)

    def _branch(self, out, pc, taken, target, srcs=()) -> None:
        out.append(pc, _OP_BRANCH_COND, REG_NONE, srcs, 0, 0, 0, target,
                   FLAG_TAKEN if taken else 0, self.name)

    def _call(self, out, pc, target) -> None:
        out.append(pc, _OP_BRANCH_DIRECT, REG_NONE, (), 0, 0, 0, target,
                   FLAG_TAKEN | FLAG_IS_CALL, self.name)

    def _ret(self, out, pc, target) -> None:
        out.append(pc, _OP_BRANCH_RETURN, REG_NONE, (), 0, 0, 0, target,
                   FLAG_TAKEN, self.name)


class ConstantPoolKernel(Kernel):
    """Pattern-1: loads of program constants/globals (fixed values)."""

    name = "constant_pool"

    def __init__(self, builder: ProgramBuilder, n_constants: int = 4,
                 iters_per_burst: int = 16) -> None:
        super().__init__(builder)
        self.n = n_constants
        self.iters = iters_per_burst
        # Static code: per constant (LOAD + consumer ALU), then
        # induction ADD + CMP + backedge.
        self.code = builder.alloc_code(2 * self.n + 3)
        self.regs = builder.alloc_regs(self.n + 2)
        self.addrs = [builder.alloc_data(8) for _ in range(self.n)]
        for i, addr in enumerate(self.addrs):
            builder.memory.write(addr, 8, _scramble(0xC0 + i))

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(1, min(self.iters, budget // (2 * self.n + 3)))
        induction, cond = self.regs[self.n], self.regs[self.n + 1]
        for it in range(iters):
            pc = self.code
            for i, addr in enumerate(self.addrs):
                self._load(out, pc, self.regs[i], addr, 8)
                pc += 4
                self._alu(out, pc, self.regs[i], (self.regs[i],))
                pc += 4
            self._alu(out, pc, induction, (induction,))
            pc += 4
            self._alu(out, pc, cond, (induction,))
            pc += 4
            self._branch(out, pc, it < iters - 1, self.code, (cond,))
        return len(out) - start


class MemsetScanKernel(Kernel):
    """The paper's Listing 1: memset an array, then scan it.

    Loads return 0 (Pattern-1 by value) from strided addresses
    (Pattern-2 by address); every outer iteration re-runs the memset,
    which is what breaks SAP across outer iterations in Table V.
    """

    name = "memset_scan"

    def __init__(self, builder: ProgramBuilder, inner_n: int = 16,
                 elem_size: int = 8) -> None:
        super().__init__(builder)
        self.n = inner_n
        self.elem_size = elem_size
        self.array = builder.alloc_data(inner_n * elem_size)
        # Preamble: the outer loop reloads the array pointer and bound
        # (two constant loads), as compiled code would.
        self.ptr_cell = builder.alloc_data(8)
        self.len_cell = builder.alloc_data(8)
        builder.memory.write(self.ptr_cell, 8, self.array)
        builder.memory.write(self.len_cell, 8, inner_n)
        self.preamble_code = builder.alloc_code(2)
        # memset loop: STORE + ADD + CMP + B  (4 static instructions)
        self.memset_code = builder.alloc_code(4)
        # scan loop: LOAD + ADD acc + ADD i + CMP + B  (5 static)
        self.scan_code = builder.alloc_code(5)
        regs = builder.alloc_regs(5)
        self.r_zero, self.r_idx, self.r_val, self.r_acc, self.r_cond = regs

    def emit(self, out, budget) -> int:
        start = len(out)
        # One outer iteration: preamble + memset pass + scan pass.
        self._load(out, self.preamble_code, self.r_zero, self.ptr_cell, 8)
        self._load(out, self.preamble_code + 4, self.r_cond, self.len_cell, 8)
        for i in range(self.n):
            addr = self.array + i * self.elem_size
            pc = self.memset_code
            self._store(out, pc, addr, self.elem_size, 0,
                        (self.r_zero, self.r_idx))
            self._alu(out, pc + 4, self.r_idx, (self.r_idx,))
            self._alu(out, pc + 8, self.r_cond, (self.r_idx,))
            self._branch(out, pc + 12, i < self.n - 1, pc, (self.r_cond,))
        for i in range(self.n):
            addr = self.array + i * self.elem_size
            pc = self.scan_code
            self._load(out, pc, self.r_val, addr, self.elem_size,
                       (self.r_idx,))
            self._alu(out, pc + 4, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 8, self.r_idx, (self.r_idx,))
            self._alu(out, pc + 12, self.r_cond, (self.r_idx,))
            self._branch(out, pc + 16, i < self.n - 1, pc, (self.r_cond,))
        return len(out) - start


class StridedSumKernel(Kernel):
    """Pattern-2: strided walk over an array.

    With probability ``constant_fraction`` (decided once per static
    copy) the array holds a single repeated value -- zeroed buffers,
    flag arrays, and splat-initialized data are ubiquitous in real
    programs -- making those loads Pattern-1 *and* Pattern-2: they are
    covered by LVP/CVP as well as SAP, the overlap Figure 4 measures.
    Otherwise elements are distinct and only SAP covers the loads.
    """

    name = "strided_sum"

    def __init__(self, builder: ProgramBuilder, n_elems: int = 64,
                 stride_elems: int = 1, elem_size: int = 8,
                 constant_fraction: float = 0.4) -> None:
        super().__init__(builder)
        self.n = n_elems
        self.stride = stride_elems * elem_size
        self.elem_size = elem_size
        self.array = builder.alloc_data(n_elems * stride_elems * elem_size)
        count = n_elems * stride_elems
        if self.rng.coin(constant_fraction):
            values = np.full(count, _scramble(0x51), dtype=np.uint64)
        else:
            values = _scramble_column(np.arange(count, dtype=np.uint64))
        builder.populate(self.array, count, elem_size, values)
        # LOAD + ADD acc + ADD idx + CMP + B
        self.code = builder.alloc_code(5)
        regs = builder.alloc_regs(4)
        self.r_idx, self.r_val, self.r_acc, self.r_cond = regs
        self._pos = 0

    def emit(self, out, budget) -> int:
        """Emit roughly ``budget`` instructions, continuing the walk
        where the previous burst stopped (the stride only breaks at the
        array wrap, as in a real long-running loop)."""
        start = len(out)
        iters = max(8, min(self.n, budget // 5))
        for _ in range(iters):
            i = self._pos
            self._pos = (self._pos + 1) % self.n
            addr = self.array + i * self.stride
            pc = self.code
            self._load(out, pc, self.r_val, addr, self.elem_size,
                       (self.r_idx,))
            self._alu(out, pc + 4, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 8, self.r_idx, (self.r_idx,))
            self._alu(out, pc + 12, self.r_cond, (self.r_idx,))
            self._branch(out, pc + 16, self._pos != 0, pc, (self.r_cond,))
        return len(out) - start


class PeriodicPatternKernel(Kernel):
    """Pattern-3 (CVP): value keyed to a periodic branch-history phase.

    One static load cycles through ``period`` scattered slots (strides
    broken on purpose), each holding a distinct fixed value.  A
    conditional branch taken only at phase zero imprints the phase onto
    the direction history, so CVP (whose tables see 5/13/32 bits of
    history) can learn value-per-phase while LVP and SAP cannot.  The
    load-path history does not change across phases, so CAP cannot
    separate them either.
    """

    name = "periodic_pattern"
    max_copies = 1

    def __init__(self, builder: ProgramBuilder, period: int = 4,
                 iters_per_burst: int = 32) -> None:
        super().__init__(builder)
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        self.period = period
        self.iters = iters_per_burst
        slots = self.rng.shuffled(list(range(period * 3)))[:period]
        self.offsets = [s * 8 for s in slots]
        self.table = builder.alloc_data(period * 3 * 8)
        for phase, offset in enumerate(self.offsets):
            builder.memory.write(self.table + offset, 8, _scramble(phase))
        # CMP + phase branch + LOAD + consumer + ADD + CMP + backedge
        self.code = builder.alloc_code(7)
        regs = builder.alloc_regs(4)
        self.r_phase, self.r_val, self.r_acc, self.r_cond = regs
        self._phase = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(self.period, min(self.iters, budget // 7))
        for it in range(iters):
            pc = self.code
            self._alu(out, pc, self.r_cond, (self.r_phase,))
            self._branch(out, pc + 4, self._phase == 0, pc + 8,
                         (self.r_cond,))
            addr = self.table + self.offsets[self._phase]
            self._load(out, pc + 8, self.r_val, addr, 8, (self.r_phase,))
            # Consumer chain runs through the loaded value, so a correct
            # prediction shortens the loop's critical path.
            self._alu(out, pc + 12, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 16, self.r_phase, (self.r_phase,))
            self._alu(out, pc + 20, self.r_cond, (self.r_phase,))
            self._branch(out, pc + 24, it < iters - 1, pc, (self.r_cond,))
            self._phase = (self._phase + 1) % self.period
        return len(out) - start


class ContextAddressKernel(Kernel):
    """Pattern-3 (CAP): call-site-dependent address, drifting values.

    A shared helper loads from a per-call-site address.  Each call site
    first performs a distinctive marker load, so the *load path*
    history identifies the site and CAP can predict the helper's
    address.  Site values are rewritten every ``drift_period`` calls,
    which defeats LVP/CVP (the value keeps changing) but not CAP,
    whose D-cache probe returns the fresh value.
    """

    name = "context_address"
    max_copies = 1

    def __init__(self, builder: ProgramBuilder, n_sites: int = 2,
                 drift_period: int = 24) -> None:
        super().__init__(builder)
        self.n_sites = n_sites
        self.drift_period = drift_period
        self.site_data = [builder.alloc_data(8) for _ in range(n_sites)]
        self.markers = [builder.alloc_data(8) for _ in range(n_sites)]
        for i, marker in enumerate(self.markers):
            builder.memory.write(marker, 8, _scramble(0x3A + i))
        for i, addr in enumerate(self.site_data):
            builder.memory.write(addr, 8, _scramble(0x7C + i))
        # Helper: LOAD + consumer + RET (3 static instructions).
        self.helper_code = builder.alloc_code(3)
        # Each site: marker LOAD + CALL (2 static instructions).
        self.site_code = [builder.alloc_code(2) for _ in range(n_sites)]
        # Updater: STORE per site + backedge (n_sites + 1).
        self.update_code = builder.alloc_code(n_sites + 1)
        regs = builder.alloc_regs(4)
        self.r_marker, self.r_arg, self.r_val, self.r_new = regs
        self._calls = 0
        self._drift = 0

    def _emit_call(self, out, site: int) -> None:
        site_pc = self.site_code[site]
        self._load(out, site_pc, self.r_marker, self.markers[site], 8)
        self._call(out, site_pc + 4, self.helper_code)
        pc = self.helper_code
        self._load(out, pc, self.r_val, self.site_data[site], 8,
                   (self.r_arg,))
        # The helper's result feeds the next call's argument: a serial
        # chain through the load, so a correct CAP prediction (probe at
        # fetch) compresses the call-to-call critical path.
        self._alu(out, pc + 4, self.r_arg, (self.r_arg, self.r_val))
        self._ret(out, pc + 8, site_pc + 8)

    def _emit_drift(self, out) -> None:
        self._drift += 1
        pc = self.update_code
        for i, addr in enumerate(self.site_data):
            self._store(out, pc, addr, 8, _scramble(0x7C + i + self._drift * 131),
                        (self.r_new,))
            pc += 4
        self._alu(out, pc, self.r_new, (self.r_new,))

    def emit(self, out, budget) -> int:
        start = len(out)
        # Long bursts matter: the 16-op memory path register needs ~8
        # calls to flush whatever the previously scheduled kernel left
        # in it before contexts become recurrent.
        calls = max(self.n_sites * 4, min(48, budget // 5))
        for _ in range(calls):
            site = self._calls % self.n_sites
            self._emit_call(out, site)
            self._calls += 1
            if self._calls % self.drift_period == 0:
                self._emit_drift(out)
        return len(out) - start


class StackFramesKernel(Kernel):
    """Pattern-2: save/restore locals on a fixed stack frame.

    Addresses are frame-constant per static load (SAP stride 0 and CAP
    both work, via the D-cache probe); values differ every call, so
    value predictors fail.  Because the reload closely follows the
    store, the timing model sees genuine in-flight store conflicts --
    the DLVP problem case.
    """

    name = "stack_frames"
    max_copies = 2

    def __init__(self, builder: ProgramBuilder, n_locals: int = 3,
                 body_alu: int = 32) -> None:
        super().__init__(builder)
        self.n_locals = n_locals
        self.body_alu = body_alu
        self.frame = STACK_BASE - builder.rng.randint(0, 64) * 1024
        # caller: n ALU + CALL; callee: n STORE + body + n LOAD + RET
        self.caller_code = builder.alloc_code(n_locals + 1)
        self.callee_code = builder.alloc_code(2 * n_locals + body_alu + 1)
        self.regs = builder.alloc_regs(n_locals + 1)
        self._calls = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        per_call = 3 * self.n_locals + self.body_alu + 2
        calls = max(1, min(8, budget // per_call))
        scratch = self.regs[self.n_locals]
        for _ in range(calls):
            self._calls += 1
            pc = self.caller_code
            for k in range(self.n_locals):
                self._alu(out, pc, self.regs[k], (self.regs[k],))
                pc += 4
            self._call(out, pc, self.callee_code)
            pc = self.callee_code
            values = [
                _scramble(self._calls * 7 + k) for k in range(self.n_locals)
            ]
            for k in range(self.n_locals):
                self._store(out, pc, self.frame + 8 * k, 8, values[k],
                            (self.regs[k],))
                pc += 4
            # Function body: enough independent work that the frame
            # stores complete before the restores are probed.
            for _ in range(self.body_alu):
                self._alu(out, pc, scratch, (scratch,))
                pc += 4
            for k in range(self.n_locals):
                self._load(out, pc, self.regs[k], self.frame + 8 * k, 8)
                pc += 4
            self._ret(out, pc, self.caller_code + 4 * self.n_locals + 4)
        return len(out) - start


class GatherIndirectKernel(Kernel):
    """Pattern-2 + Pattern-3: strided index load feeding a gather."""

    name = "gather_indirect"

    def __init__(self, builder: ProgramBuilder, n: int = 64,
                 table_elems: int = 512) -> None:
        super().__init__(builder)
        self.n = n
        self.index_array = builder.alloc_data(n * 4)
        self.data_table = builder.alloc_data(table_elems * 8)
        indices = [self.rng.randint(0, table_elems) for _ in range(n)]
        builder.populate(self.index_array, n, 4,
                         np.array(indices, dtype=np.uint64))
        table = _scramble_column(np.arange(table_elems, dtype=np.uint64))
        builder.populate(self.data_table, table_elems, 8, table)
        # LOAD idx + LOAD data + ADD acc + ADD i + CMP + B
        self.code = builder.alloc_code(6)
        regs = builder.alloc_regs(5)
        self.r_i, self.r_idx, self.r_val, self.r_acc, self.r_cond = regs
        self._pos = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(8, min(self.n, budget // 6))
        for _ in range(iters):
            i = self._pos
            self._pos = (self._pos + 1) % self.n
            pc = self.code
            idx_addr = self.index_array + i * 4
            self._load(out, pc, self.r_idx, idx_addr, 4, (self.r_i,))
            index = self.b.memory.read(idx_addr, 4)
            self._load(out, pc + 4, self.r_val,
                       self.data_table + index * 8, 8, (self.r_idx,))
            self._alu(out, pc + 8, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 12, self.r_i, (self.r_i,))
            self._alu(out, pc + 16, self.r_cond, (self.r_i,))
            self._branch(out, pc + 20, self._pos != 0, pc, (self.r_cond,))
        return len(out) - start


class PointerChaseKernel(Kernel):
    """Pattern-3-hard: serialized linked-list traversal."""

    name = "pointer_chase"
    max_copies = 2

    def __init__(self, builder: ProgramBuilder, n_nodes: int = 64) -> None:
        super().__init__(builder)
        self.n_nodes = n_nodes
        node_size = 16  # next pointer (8B) + payload (8B)
        self.nodes = builder.alloc_data(n_nodes * node_size)
        order = self.rng.shuffled(list(range(n_nodes)))
        addr_of = [self.nodes + i * node_size for i in range(n_nodes)]
        for pos, node in enumerate(order):
            succ = order[(pos + 1) % n_nodes]
            builder.memory.write(addr_of[node], 8, addr_of[succ])
            builder.memory.write(addr_of[node] + 8, 8, _scramble(node))
        self.head = addr_of[order[0]]
        # LOAD next + LOAD payload + ADD acc + CMP + B
        self.code = builder.alloc_code(5)
        regs = builder.alloc_regs(4)
        self.r_ptr, self.r_val, self.r_acc, self.r_cond = regs

    def emit(self, out, budget) -> int:
        start = len(out)
        steps = max(4, min(self.n_nodes, budget // 5))
        current = self.head
        for step in range(steps):
            pc = self.code
            next_addr = self.b.memory.read(current, 8)
            self._load(out, pc, self.r_ptr, current, 8, (self.r_ptr,))
            self._load(out, pc + 4, self.r_val, current + 8, 8,
                       (self.r_ptr,))
            self._alu(out, pc + 8, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 12, self.r_cond, (self.r_ptr,))
            self._branch(out, pc + 16, step < steps - 1, pc, (self.r_cond,))
            current = next_addr
        return len(out) - start


class RandomLoadsKernel(Kernel):
    """Pattern-3 addresses; values depend on the copy's flavour.

    With probability ``constant_fraction`` the region holds one value
    everywhere (zero) -- the sparse-membership pattern: hash-table miss
    probes, NULL checks over big pointer arrays, bitmap tests.  Those
    copies are the value predictors' exclusive home turf: addresses are
    random (SAP/CAP and the prefetchers are all helpless, and an
    address-prediction probe would miss the L1 anyway), yet LVP/CVP
    predict the value through the full miss latency.  The remaining
    copies hold distinct values and are predictable by nothing.
    """

    name = "random_loads"

    def __init__(self, builder: ProgramBuilder,
                 region_bytes: int = 256 * 1024,
                 constant_fraction: float = 0.5) -> None:
        super().__init__(builder)
        self.region = builder.alloc_data(region_bytes)
        self.region_words = region_bytes // 8
        self.constant = self.rng.coin(constant_fraction)
        if not self.constant:
            count = min(self.region_words, 8192)
            values = _scramble_column(np.arange(count, dtype=np.uint64))
            builder.populate(self.region, count, 8, values)
        # Constant copies: never-written words read as zero everywhere.
        # ALU (index calc) + LOAD + ADD acc + CMP + B
        self.code = builder.alloc_code(5)
        regs = builder.alloc_regs(4)
        self.r_idx, self.r_val, self.r_acc, self.r_cond = regs

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(4, min(32, budget // 5))
        for it in range(iters):
            pc = self.code
            word = self.rng.randint(0, self.region_words)
            self._alu(out, pc, self.r_idx, (self.r_idx,))
            self._load(out, pc + 4, self.r_val, self.region + word * 8, 8,
                       (self.r_idx,))
            self._alu(out, pc + 8, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 12, self.r_cond, (self.r_acc,))
            self._branch(out, pc + 16, it < iters - 1, pc, (self.r_cond,))
        return len(out) - start


class MissConstantsKernel(Kernel):
    """Pattern-1 under cache misses: constant values, L1-missing region.

    Scans a large region (every access a fresh cache block) in which
    every element holds the same value -- a zeroed bitmap or sentinel
    sweep.  The loaded value feeds a conditional branch (the sentinel
    check).  Value predictors (LVP/CVP) predict through the misses and
    pull both the dependent branch and the consumers off the miss
    latency; address predictors are useless here because the PAQ probe
    misses in the L1D and the prediction is dropped -- the paper's
    argument for preferring value predictors.
    """

    name = "miss_constants"

    def __init__(self, builder: ProgramBuilder,
                 region_bytes: int = 512 * 1024,
                 sentinel: int = 0) -> None:
        super().__init__(builder)
        self.region = builder.alloc_data(region_bytes)
        self.blocks = region_bytes // 64
        self.sentinel = sentinel & _VALUE_MASK
        if self.sentinel:
            # One word per 64-byte block, matching the loop's accesses.
            builder.memory.write_words(
                self.region,
                np.full(self.blocks, self.sentinel, dtype=np.uint64),
                stride=64,
            )
        # LOAD + sentinel branch + ADD acc + ADD idx + CMP + backedge
        self.code = builder.alloc_code(6)
        regs = builder.alloc_regs(4)
        self.r_idx, self.r_val, self.r_acc, self.r_cond = regs
        self._pos = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(8, min(64, budget // 6))
        for it in range(iters):
            pc = self.code
            addr = self.region + self._pos * 64
            self._pos = (self._pos + 1) % self.blocks
            self._load(out, pc, self.r_val, addr, 8, (self.r_idx,))
            # Sentinel check: never fires, but depends on the load.
            self._branch(out, pc + 4, False, pc + 8, (self.r_val,))
            self._alu(out, pc + 8, self.r_acc, (self.r_acc, self.r_val))
            self._alu(out, pc + 12, self.r_idx, (self.r_idx,))
            self._alu(out, pc + 16, self.r_cond, (self.r_idx,))
            self._branch(out, pc + 20, it < iters - 1, pc, (self.r_cond,))
        return len(out) - start


class ChainedStrideKernel(Kernel):
    """Pattern-2 on a serial chain: each load's value is the next index.

    ``A[i]`` holds ``i + 1``, and the loop walks ``idx = A[idx]``, so
    each load's *address* comes from the previous load's *value* -- a
    load-to-load serial chain (like walking an index array in sorted
    order).  Addresses are strided, so SAP predicts them, the PAQ probe
    supplies the value early, and the chain compresses from one
    load-to-use latency per iteration to one fetch cycle per iteration.
    Values change every iteration, so LVP/CVP never fire.
    """

    name = "chained_stride"

    def __init__(self, builder: ProgramBuilder, n_elems: int = 128,
                 encoded_fraction: float = 0.75) -> None:
        super().__init__(builder)
        self.n = n_elems
        self.array = builder.alloc_data(n_elems * 8)
        # Most copies store *encoded* links (compressed/offset pointers,
        # as JS engines and many allocators use): the register chain is
        # the same, but the loaded values are not an arithmetic sequence
        # -- so stride-VALUE predictors (E-Stride, SVP) cannot shortcut
        # the chain; only the address predictors' D-cache probe can.
        self.encoded = self.rng.coin(encoded_fraction)
        links = (np.arange(n_elems, dtype=np.uint64) + 1) % n_elems
        if self.encoded:
            links = _scramble_column(links)
        builder.populate(self.array, n_elems, 8, links)
        # LOAD idx + decode ALU + ADD acc + CMP + backedge
        self.code = builder.alloc_code(5)
        regs = builder.alloc_regs(3)
        self.r_idx, self.r_acc, self.r_cond = regs
        self._pos = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        steps = max(8, min(self.n, budget // 5))
        for step in range(steps):
            pc = self.code
            addr = self.array + self._pos * 8
            self._pos = (self._pos + 1) % self.n
            self._load(out, pc, self.r_idx, addr, 8, (self.r_idx,))
            # Decode step: the next address is computed from the loaded
            # (possibly encoded) link, keeping the serial dependence.
            self._alu(out, pc + 4, self.r_idx, (self.r_idx,))
            self._alu(out, pc + 8, self.r_acc, (self.r_acc, self.r_idx))
            self._alu(out, pc + 12, self.r_cond, (self.r_idx,))
            self._branch(out, pc + 16, step < steps - 1, pc, (self.r_cond,))
        return len(out) - start


class HotFlagKernel(Kernel):
    """The conflicting-store pathology (what PC-AM exists for).

    A flag word is stored and reloaded a few instructions later, every
    iteration, with a new value each time.  The reload's address is
    perfectly stable, so SAP/CAP grow confident -- but the PAQ probe
    races the store and returns the *previous* value, mispredicting
    systematically.  Misprediction feedback resets confidence, so the
    flush rate is one per effective-confidence interval; the per-PC
    accuracy monitor is the mechanism that shuts the pattern down
    entirely.
    """

    name = "hot_flag"
    max_copies = 1

    def __init__(self, builder: ProgramBuilder, gap_alu: int = 3,
                 atomic_fraction: float = 0.3) -> None:
        super().__init__(builder)
        self.gap = gap_alu
        # Some flag words are lock-like: accessed with atomic/exclusive
        # loads, which the paper excludes from prediction ("address/
        # value prediction is not used with memory ordering
        # instructions, atomic and exclusive memory accesses").
        self.atomic = self.rng.coin(atomic_fraction)
        self.flag = builder.alloc_data(8)
        # STORE + gap ALU + LOAD + consumer + backedge
        self.code = builder.alloc_code(self.gap + 4)
        regs = builder.alloc_regs(3)
        self.r_val, self.r_tmp, self.r_cond = regs
        self._counter = 0

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(2, min(12, budget // (self.gap + 4)))
        for it in range(iters):
            self._counter += 1
            pc = self.code
            self._store(out, pc, self.flag, 8, self._counter, (self.r_val,))
            pc += 4
            for _ in range(self.gap):
                self._alu(out, pc, self.r_tmp, (self.r_tmp,))
                pc += 4
            self._load(out, pc, self.r_val, self.flag, 8,
                       flags=FLAG_NO_PREDICT if self.atomic else 0)
            pc += 4
            self._alu(out, pc, self.r_cond, (self.r_val,))
            pc += 4
            self._branch(out, pc, it < iters - 1, self.code, (self.r_cond,))
        return len(out) - start


class BranchyAluKernel(Kernel):
    """Load-free filler: dependency chains and noisy branches."""

    name = "branchy_alu"

    def __init__(self, builder: ProgramBuilder, taken_bias: float = 0.85,
                 chain_length: int = 3) -> None:
        super().__init__(builder)
        self.bias = taken_bias
        self.chain = chain_length
        # chain ALU + CMP + data branch + backedge
        self.code = builder.alloc_code(self.chain + 3)
        regs = builder.alloc_regs(3)
        self.r_a, self.r_b, self.r_cond = regs

    def emit(self, out, budget) -> int:
        start = len(out)
        iters = max(2, min(16, budget // (self.chain + 3)))
        for it in range(iters):
            pc = self.code
            for _ in range(self.chain):
                self._alu(out, pc, self.r_a, (self.r_a, self.r_b))
                pc += 4
            self._alu(out, pc, self.r_cond, (self.r_a,))
            pc += 4
            self._branch(out, pc, self.rng.coin(self.bias), self.code,
                         (self.r_cond,))
            pc += 4
            self._branch(out, pc, it < iters - 1, self.code, (self.r_cond,))
        return len(out) - start


#: Registry used by profiles; values are (class, default-params).
KERNEL_CLASSES = {
    "constant_pool": ConstantPoolKernel,
    "memset_scan": MemsetScanKernel,
    "strided_sum": StridedSumKernel,
    "periodic_pattern": PeriodicPatternKernel,
    "context_address": ContextAddressKernel,
    "stack_frames": StackFramesKernel,
    "gather_indirect": GatherIndirectKernel,
    "pointer_chase": PointerChaseKernel,
    "random_loads": RandomLoadsKernel,
    "miss_constants": MissConstantsKernel,
    "chained_stride": ChainedStrideKernel,
    "hot_flag": HotFlagKernel,
    "branchy_alu": BranchyAluKernel,
}
