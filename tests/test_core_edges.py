"""Edge-case tests for the core model's instruction handling."""

from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from conftest import alone

from repro.pipeline import NoPredictor, simulate


def _trace(instructions, name="edge"):
    trace = Trace(name, instructions)
    trace.initial_memory = MemoryImage()
    return trace


class TestDegenerateTraces:
    def test_empty_trace(self):
        result = simulate(_trace([]))
        assert result.cycles == 0
        assert result.instructions == 0

    def test_single_instruction(self):
        result = simulate(_trace([
            Instruction(pc=0x1000, op=OpClass.NOP)
        ]))
        assert result.cycles > 0
        assert result.instructions == 1

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
