"""Tests for workload generation: registry, determinism, consistency,
and -- critically -- that each kernel produces the load behaviour it
advertises (the basis of every figure's shape)."""

from typing import NamedTuple

import pytest

from repro.common.rng import DeterministicRng
from repro.isa.columns import ColumnSink
from repro.isa.instruction import OP_LOAD, OP_STORE, OpClass
from repro.memory.image import MemoryImage
from repro.workloads.builder import ProgramBuilder
from repro.workloads.generator import (
    SPECIAL_WORKLOADS,
    clear_trace_caches,
    generate_trace,
)
from repro.workloads.kernels import (
    KERNEL_CLASSES,
    ChainedStrideKernel,
    ConstantPoolKernel,
    ContextAddressKernel,
    HotFlagKernel,
    MemsetScanKernel,
    PeriodicPatternKernel,
    PointerChaseKernel,
    StridedSumKernel,
)
from repro.workloads.profiles import (
    ALL_WORKLOADS,
    FAMILIES,
    WORKLOAD_FAMILY,
    profile_for,
)


class TestRegistry:
    def test_eighty_five_workloads(self):
        """The paper evaluates 85 workloads (Figure 12)."""
        assert len(ALL_WORKLOADS) == 85

    def test_listing1_is_a_named_special_workload(self):
        """Listing 1 runs through generate_trace like any workload, but
        lives outside ALL_WORKLOADS so the 85-workload figures are
        unchanged."""
        assert SPECIAL_WORKLOADS == ("listing1",)
        assert "listing1" not in ALL_WORKLOADS
        trace = generate_trace("listing1", 3000)
        assert trace.name == "listing1"
        assert len(trace.instructions) == 3000
        assert trace.metadata["family"] == "micro"
        assert trace.metadata["scan_load_pc"] is not None
        # Deterministic in (name, length, seed), like every workload.
        again = generate_trace("listing1", 3000)
        assert again is trace

    def test_every_family_is_defined(self):
        assert set(WORKLOAD_FAMILY.values()) <= set(FAMILIES)

    def test_family_weights_reference_real_kernels(self):
        for family, weights in FAMILIES.items():
            unknown = set(weights) - set(KERNEL_CLASSES)
            assert not unknown, f"{family}: {unknown}"

    def test_profile_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            profile_for("not-a-benchmark")

    def test_profiles_are_deterministic(self):
        assert profile_for("gcc2k") == profile_for("gcc2k")

    def test_siblings_differ(self):
        assert profile_for("gcc2k") != profile_for("gzip")


class TestGeneration:
    def test_deterministic(self):
        a = generate_trace("coremark", 5000)
        clear_trace_caches()  # regenerate instead of hitting the memo
        b = generate_trace("coremark", 5000)
        assert a is not b
        assert a.instructions == b.instructions

    def test_seed_changes_trace(self):
        a = generate_trace("coremark", 5000, seed=0)
        b = generate_trace("coremark", 5000, seed=1)
        assert a.instructions != b.instructions

    def test_exact_length(self):
        assert len(generate_trace("mcf", 7000)) == 7000

    def test_reasonable_mix(self):
        stats = generate_trace("gcc2k", 20_000).stats()
        assert 0.10 < stats.load_fraction < 0.40
        assert 0.05 < stats.branch_fraction < 0.40
        assert stats.unique_load_pcs > 10

    def test_memory_consistency(self):
        """Replaying stores over the initial image must reproduce every
        load's value -- the invariant all probe resolution relies on."""
        trace = generate_trace("v8", 15_000)
        image = trace.initial_memory.copy()
        for inst in trace.instructions:
            if inst.op is OpClass.STORE:
                image.write(inst.addr, inst.size, inst.value)
            elif inst.op is OpClass.LOAD:
                assert image.read(inst.addr, inst.size) == inst.value

    @pytest.mark.parametrize("name", ["coremark", "equake", "splay"])
    def test_initial_memory_attached(self, name):
        trace = generate_trace(name, 2000)
        assert isinstance(trace.initial_memory, MemoryImage)


class _Access(NamedTuple):
    """One load or store, read back from a sink's columns."""

    pc: int
    addr: int
    value: int


def _collect(kernel, budget=4000):
    out = ColumnSink()
    while len(out) < budget:
        kernel.emit(out, 400)
    return out


def _accesses(sink, op):
    return [
        _Access(pc, addr, value)
        for pc, code, addr, value in zip(
            sink.pc, sink.op, sink.addr, sink.value
        )
        if code == op
    ]


def _loads(sink):
    return _accesses(sink, OP_LOAD)


def _stores(sink):
    return _accesses(sink, OP_STORE)


class TestKernelBehaviours:
    def test_constant_pool_values_fixed_per_pc(self):
        builder = ProgramBuilder(DeterministicRng(1))
        loads = _loads(_collect(ConstantPoolKernel(builder, n_constants=4)))
        by_pc: dict[int, set] = {}
        for load in loads:
            by_pc.setdefault(load.pc, set()).add(load.value)
        assert by_pc and all(len(v) == 1 for v in by_pc.values())

    def test_strided_sum_addresses_strided_values_distinct(self):
        builder = ProgramBuilder(DeterministicRng(2))
        kernel = StridedSumKernel(builder, n_elems=64, stride_elems=2,
                                  elem_size=8)
        loads = _loads(_collect(kernel, budget=500))
        deltas = {b.addr - a.addr for a, b in zip(loads, loads[1:])
                  if b.addr > a.addr}
        assert deltas == {16}
        assert len({l.value for l in loads[:64]}) == len(loads[:64])

    def test_memset_scan_loads_zero(self):
        builder = ProgramBuilder(DeterministicRng(3))
        kernel = MemsetScanKernel(builder, inner_n=16)
        out = ColumnSink()
        kernel.emit(out, 0)
        scan_loads = [i for i in _loads(out) if i.pc == kernel.scan_code]
        assert len(scan_loads) == 16
        assert all(l.value == 0 for l in scan_loads)

    def test_pointer_chase_values_are_next_addresses(self):
        builder = ProgramBuilder(DeterministicRng(4))
        kernel = PointerChaseKernel(builder, n_nodes=32)
        out = ColumnSink()
        kernel.emit(out, 32 * 5)
        next_loads = [i for i in _loads(out) if i.pc == kernel.code]
        for a, b in zip(next_loads, next_loads[1:]):
            assert a.value == b.addr  # the chase invariant

    def test_periodic_pattern_values_cycle(self):
        builder = ProgramBuilder(DeterministicRng(5))
        kernel = PeriodicPatternKernel(builder, period=4, iters_per_burst=32)
        loads = _loads(_collect(kernel, budget=1000))
        values = [l.value for l in loads]
        assert values[: 4] == values[4: 8] == values[8: 12]
        assert len(set(values[:4])) == 4

    def test_context_address_per_site_addresses(self):
        builder = ProgramBuilder(DeterministicRng(6))
        kernel = ContextAddressKernel(builder, n_sites=2, drift_period=1000)
        out = ColumnSink()
        kernel.emit(out, 200)
        helper_loads = [
            i for i in _loads(out) if i.pc == kernel.helper_code
        ]
        addresses = {l.addr for l in helper_loads}
        assert addresses == set(kernel.site_data)

    def test_chained_stride_addresses_strided_values_linked(self):
        builder = ProgramBuilder(DeterministicRng(7))
        plain = ChainedStrideKernel(builder, n_elems=64,
                                    encoded_fraction=0.0)
        out = ColumnSink()
        plain.emit(out, 64 * 5)
        loads = _loads(out)
        # Addresses walk the array in order...
        for a, b in zip(loads, loads[1:]):
            assert b.addr == plain.array + (
                ((a.addr - plain.array) // 8 + 1) % plain.n
            ) * 8
        # ...and plain copies store the literal next index.
        for load in loads[:-1]:
            assert load.value == ((load.addr - plain.array) // 8 + 1) % plain.n

    def test_chained_stride_encoded_values_not_arithmetic(self):
        """Encoded copies break stride-VALUE predictability (so only
        the address predictors can shortcut the chain)."""
        builder = ProgramBuilder(DeterministicRng(9))
        kernel = ChainedStrideKernel(builder, n_elems=64,
                                     encoded_fraction=1.0)
        out = ColumnSink()
        kernel.emit(out, 64 * 5)
        values = [l.value for l in _loads(out)][:32]
        deltas = {b - a for a, b in zip(values, values[1:])}
        assert len(deltas) > 5  # nothing like an arithmetic sequence

    def test_hot_flag_reload_sees_fresh_store(self):
        builder = ProgramBuilder(DeterministicRng(8))
        kernel = HotFlagKernel(builder, gap_alu=2)
        out = ColumnSink()
        kernel.emit(out, 100)
        stores = _stores(out)
        loads = _loads(out)
        assert len(stores) == len(loads)
        for store, load in zip(stores, loads):
            assert store.addr == load.addr
            assert store.value == load.value  # architecturally fresh
