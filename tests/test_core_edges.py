"""Edge-case tests for the core model's instruction handling."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.columns import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    KIND_WIDE,
    TraceColumns,
)
from repro.isa.instruction import NUM_ARCH_REGS, REG_NONE, Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SimulationInterrupted
from repro.workloads import generate_trace
from conftest import alone
from oracles.core_loop import simulate_objects

from repro.pipeline import NoPredictor, simulate


def _trace(instructions, name="edge"):
    trace = Trace(name, instructions)
    trace.initial_memory = MemoryImage()
    return trace


def _matches_oracle(trace, make_predictor=lambda: None, config=None):
    """Run ``trace`` on the core loop and on the scoreboard oracle in
    ``tests/oracles/core_loop.py``; the results must be bit-identical."""
    result = simulate(trace, make_predictor(), config=config)
    assert asdict(result) == asdict(
        simulate_objects(trace, make_predictor(), config=config)
    )
    return result


def _scoreboard_producers(instructions):
    """Per instruction, the producer of each source operand by a scalar
    walk: the index of the last earlier writer of the register, or
    ``n`` when none."""
    n = len(instructions)
    last = [n] * NUM_ARCH_REGS
    out = []
    for i, inst in enumerate(instructions):
        out.append(tuple(last[reg] for reg in inst.srcs))
        if inst.dest != REG_NONE:
            last[inst.dest] = i
    return out


class TestDegenerateTraces:
    def test_empty_trace(self):
        result = _matches_oracle(_trace([]), lambda: alone("lvp", 64))
        assert result.cycles == 0
        assert result.instructions == 0

    def test_single_instruction(self):
        result = _matches_oracle(_trace([
            Instruction(pc=0x1000, op=OpClass.NOP)
        ]))
        assert result.cycles > 0
        assert result.instructions == 1

    @pytest.mark.parametrize("inst", [
        Instruction(pc=0x1000, op=OpClass.INT_ALU, dest=1, srcs=(1, 2, 3)),
        Instruction(pc=0x1000, op=OpClass.LOAD, dest=1, addr=0x40, size=8),
        Instruction(pc=0x1000, op=OpClass.STORE, srcs=(1,), addr=0x40,
                    size=8, value=1),
        Instruction(pc=0x1000, op=OpClass.BRANCH_COND, taken=True,
                    target=0x2000),
    ], ids=("wide-alu", "load", "store", "branch"))
    def test_single_instruction_of_each_kind(self, inst):
        result = _matches_oracle(_trace([inst]), lambda: alone("lvp", 64))
        assert result.instructions == 1 and result.cycles > 0

    def test_all_nops_run_at_fetch_width(self):
        n = 4000
        result = simulate(_trace([
            Instruction(pc=0x1000 + 4 * (i % 8), op=OpClass.NOP)
            for i in range(n)
        ]))
        # 4-wide fetch is the bound; pipeline fill is amortized.
        assert 2.0 < result.ipc <= 4.0

    def test_dependency_chain_is_serial(self):
        n = 2000
        result = simulate(_trace([
            Instruction(pc=0x1000, op=OpClass.INT_ALU, dest=1, srcs=(1,))
            for _ in range(n)
        ]))
        assert result.ipc <= 1.05  # one ALU per cycle through the chain


class TestPredictionEligibility:
    def test_no_predict_loads_never_probed(self):
        """Atomics/exclusives are excluded from prediction (Sec. III)."""
        probes = []
        lvp = alone("lvp", 64)
        original = lvp.predict
        lvp.predict = lambda p: probes.append(p) or original(p)
        trace = _trace([
            Instruction(pc=0x1000, op=OpClass.LOAD, dest=1, addr=0x10,
                        size=8, no_predict=True)
            for _ in range(50)
        ])
        result = simulate(trace, lvp)
        assert probes == []
        assert result.predictable_loads == 0
        assert result.loads == 50

    def test_stores_not_counted_as_loads(self):
        trace = _trace([
            Instruction(pc=0x1000, op=OpClass.STORE, addr=0x10, size=8,
                        value=1)
            for _ in range(50)
        ])
        result = simulate(trace)
        assert result.loads == 0


class TestBranchCosts:
    def test_unpredictable_branches_cost_cycles(self):
        import itertools

        def branchy(pattern):
            bits = itertools.cycle(pattern)
            return _trace([
                Instruction(pc=0x1000, op=OpClass.BRANCH_COND,
                            taken=next(bits), target=0x1000)
                for _ in range(3000)
            ])
        # A fixed pattern TAGE learns vs a pseudo-random one it cannot.
        predictable = simulate(branchy([True]))
        # de Bruijn-ish aperiodic-looking long pattern
        import random
        rng = random.Random(7)
        noisy = simulate(branchy([rng.random() < 0.5 for _ in range(997)]))
        assert noisy.cycles > predictable.cycles
        assert noisy.branch_mpki > predictable.branch_mpki


class TestLoadTiming:
    def test_dependent_load_chain_benefits_from_prediction(self):
        """The canonical VP case: serialized constant-address loads."""
        image = MemoryImage()
        image.write(0x8000, 8, 0x8000)
        instructions = []
        for _ in range(800):
            instructions.append(Instruction(
                pc=0x1000, op=OpClass.LOAD, dest=1, srcs=(1,),
                addr=0x8000, size=8, value=0x8000,
            ))
        trace = Trace("self-chain", instructions)
        trace.initial_memory = image
        baseline = simulate(trace, NoPredictor())
        lvp = simulate(trace, alone("lvp", 64))
        # The chain breaks where predictions land; back-to-back loads
        # also exercise the finite VPE (entries held until validation).
        assert lvp.cycles < baseline.cycles * 0.75
        assert lvp.dropped_queue_full > 0


def _div_then(consumer_srcs, repeats=300):
    """A slow divide into r5 and fast ALU ops into r2/r3, then an ALU
    op reading ``consumer_srcs`` into r1, ``repeats`` times."""
    body = [
        Instruction(pc=0x1000, op=OpClass.INT_DIV, dest=5, srcs=(1,)),
        Instruction(pc=0x1004, op=OpClass.INT_ALU, dest=2),
        Instruction(pc=0x1008, op=OpClass.INT_ALU, dest=3),
        Instruction(pc=0x100C, op=OpClass.INT_ALU, dest=4),
        Instruction(pc=0x1010, op=OpClass.INT_ALU, dest=1,
                    srcs=consumer_srcs),
    ]
    return _trace(body * repeats)


class TestSourceOperands:
    """Every operand shape, each checked against the scoreboard oracle."""

    @pytest.mark.parametrize("srcs", [(2, 3, 5), (2, 3, 4, 5)],
                             ids=("three", "four"))
    def test_wide_instruction_waits_for_its_extra_sources(self, srcs):
        # The slow divide feeds only the third or fourth operand, so
        # the chain through r1 is serial only if that operand is read.
        wide = _matches_oracle(_div_then(srcs))
        narrow = _matches_oracle(_div_then(srcs[:2]))
        assert wide.cycles > 2 * narrow.cycles

    def test_wide_memory_and_branch_instructions(self):
        image = MemoryImage()
        image.write(0x8000, 8, 7)
        body = [
            Instruction(pc=0x1000, op=OpClass.INT_MUL, dest=5, srcs=(6,)),
            Instruction(pc=0x1004, op=OpClass.LOAD, dest=6,
                        srcs=(1, 2, 5), addr=0x8000, size=8, value=7),
            Instruction(pc=0x1008, op=OpClass.STORE, srcs=(6, 2, 3, 5),
                        addr=0x8000, size=8, value=7),
            Instruction(pc=0x100C, op=OpClass.BRANCH_COND,
                        srcs=(1, 2, 6), taken=True, target=0x1000),
        ]
        trace = _trace(body * 200)
        trace.initial_memory = image
        _matches_oracle(trace)
        _matches_oracle(trace, lambda: alone("lvp", 64))

    def test_own_destination_reads_the_previous_writer(self):
        # r1 += r1: each op waits for the previous one, never itself.
        chain = [
            Instruction(pc=0x1000, op=OpClass.INT_MUL, dest=1, srcs=(1, 1))
            for _ in range(500)
        ]
        result = _matches_oracle(_trace(chain))
        assert result.cycles >= 3 * 500

    def test_source_never_written_is_ready_at_dispatch(self):
        trace = _trace([
            Instruction(pc=0x1000 + 4 * (i % 8), op=OpClass.INT_DIV,
                        dest=1, srcs=(30, 29, 28))
            for i in range(800)
        ])
        result = _matches_oracle(trace)
        # Nothing writes r28-r30: the divides overlap freely.
        assert result.ipc > 1.0

    def test_smallest_legal_config(self):
        """Every field at the least value ``CoreConfig`` accepts."""
        config = CoreConfig(
            fetch_width=1, issue_width=1, commit_width=1, ls_lanes=1,
            generic_lanes=1, rob_entries=1, iq_entries=1, ldq_entries=1,
            stq_entries=1, paq_entries=1, vpe_entries=1, ras_entries=1,
            fetch_to_execute=2, redirect_penalty=0, paq_queue_delay=0,
            store_forward_latency=0, ssit_entries=1, lfst_entries=1,
        )
        trace = generate_trace("mcf", 1500, 1)
        _matches_oracle(trace, lambda: alone("lvp", 64), config)


class TestInterrupts:
    def test_stops_at_the_same_instruction_as_the_oracle(self):
        trace = generate_trace("coremark", 600, 0)
        simulate(trace)  # record the front end and hierarchy first

        def stopper(calls):
            def interrupt(done):
                calls.append(done)
                return done >= 300
            return interrupt

        stopped = []
        for run in (simulate, simulate_objects):
            calls = []
            with pytest.raises(SimulationInterrupted) as err:
                run(trace, interrupt=stopper(calls), interrupt_interval=7)
            stopped.append((err.value.instructions_done, calls))
        assert stopped[0] == stopped[1]
        done, calls = stopped[0]
        assert done == 301 and calls == list(range(7, 302, 7))

    def test_polls_without_stopping_match_the_oracle(self):
        trace = generate_trace("mcf", 500, 0)
        simulate(trace)
        seen = ([], [])
        simulate(trace, interrupt=seen[0].append, interrupt_interval=7)
        simulate_objects(trace, interrupt=seen[1].append,
                         interrupt_interval=7)
        assert seen[0] == seen[1] == list(range(7, 501, 7))


def _program(rng, n):
    ops = (OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE,
           OpClass.BRANCH_COND, OpClass.NOP)
    out = []
    for _ in range(n):
        op = rng.choice(ops)
        dest = rng.choice((REG_NONE, rng.randrange(8)))
        if op is OpClass.LOAD and dest == REG_NONE:
            dest = 0
        out.append(Instruction(
            pc=0x1000, op=op, dest=dest,
            srcs=tuple(rng.randrange(8) for _ in range(rng.randrange(6))),
            addr=0x40, size=8,
        ))
    return out


class TestDataflowColumns:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120))
    def test_producers_match_a_scoreboard_walk(self, seed, n):
        instructions = _program(random.Random(seed), n)
        flow = TraceColumns.from_instructions(instructions).dataflow()
        for i, (inst, producers) in enumerate(
            zip(instructions, _scoreboard_producers(instructions))
        ):
            padded = producers + (n, n)
            assert (flow.src0[i], flow.src1[i]) == padded[:2]
            assert flow.wide.get(i, ()) == producers[2:]
            kind = flow.kind[i]
            assert bool(kind & KIND_WIDE) == (len(producers) > 2)
            assert kind & ~KIND_WIDE == {
                OpClass.LOAD: KIND_LOAD, OpClass.STORE: KIND_STORE,
                OpClass.BRANCH_COND: KIND_BRANCH,
            }.get(inst.op, KIND_OTHER)

    def test_columns_are_compact_and_memoized(self):
        cols = generate_trace("gcc2k", 2000, 0).pack()
        flow = cols.dataflow()
        assert cols.dataflow() is flow
        assert (flow.kind.typecode, flow.src0.typecode,
                flow.src1.typecode) == ("B", "i", "i")
        assert len(flow.kind) == len(flow.src0) == len(flow.src1) == 2000

    def test_rebuilt_from_buffers(self):
        cols = generate_trace("mcf", 1000, 0).pack()
        loaded = TraceColumns.from_buffers(*cols.to_buffers())
        theirs, ours = loaded.dataflow(), cols.dataflow()
        assert theirs is not ours
        for name in ("kind", "src0", "src1", "wide"):
            assert getattr(theirs, name) == getattr(ours, name)
