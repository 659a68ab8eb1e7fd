"""Integration tests for the core timing model."""

import pytest
from conftest import alone

from repro.composite import CompositeConfig, CompositePredictor
from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline import CoreConfig, NoPredictor, simulate
from repro.workloads import generate_trace


def _chain_trace(n=400):
    """A serial chain of constant-address, constant-value loads where
    each load's address register comes from the previous load: VP is
    the only way to break the chain."""
    instructions = []
    image = MemoryImage()
    image.write(0x8000, 8, 0x8000)  # self-pointer: value == address
    for _ in range(n):
        instructions.append(Instruction(
            pc=0x1000, op=OpClass.LOAD, dest=1, srcs=(1,),
            addr=0x8000, size=8, value=0x8000,
        ))
        instructions.append(Instruction(
            pc=0x1004, op=OpClass.INT_ALU, dest=2, srcs=(1, 2),
        ))
    trace = Trace("chain", instructions)
    trace.initial_memory = image
    return trace


class TestBaseline:
    def test_runs_and_reports(self):
        result = simulate(generate_trace("coremark", 4000))
        assert result.cycles > 0
        assert 0.1 < result.ipc < 4.0
        assert result.loads > 0
        assert result.predicted_loads == 0  # no predictor

    def test_deterministic(self):
        trace = generate_trace("coremark", 4000)
        assert simulate(trace).cycles == simulate(trace).cycles

    def test_ipc_bounded_by_widths(self):
        result = simulate(generate_trace("linpack", 4000))
        assert result.ipc <= CoreConfig().commit_width


class TestValuePredictionEffects:
    def test_correct_predictions_speed_up_chains(self):
        trace = _chain_trace()
        baseline = simulate(trace)
        lvp = alone("lvp", 256)
        result = simulate(trace, lvp)
        assert result.coverage > 0.5
        assert result.accuracy == 1.0
        assert result.cycles < baseline.cycles

    def test_speedup_over_requires_same_trace(self):
        a = simulate(generate_trace("coremark", 3000))
        b = simulate(generate_trace("coremark", 4000))
        with pytest.raises(ValueError):
            b.speedup_over(a)

    def test_mispredictions_cost_cycles(self):
        """An adversarial trace (value flips each instance after a warm
        constant phase) must not be faster than baseline."""
        instructions = []
        image = MemoryImage()
        pc, addr = 0x1000, 0x8000
        value = 7
        image.write(addr, 8, value)
        for i in range(600):
            flip = i > 300 and i % 2 == 0
            v = 99 if flip else value
            instructions.append(Instruction(
                pc=pc, op=OpClass.LOAD, dest=1, addr=addr, size=8, value=v,
            ))
            instructions.append(Instruction(
                pc=0x1004, op=OpClass.INT_ALU, dest=2, srcs=(1,),
            ))
        trace = Trace("adversarial", instructions)
        trace.initial_memory = image
        lvp = alone("lvp", 64)
        result = simulate(trace, lvp)
        assert result.value_mispredictions > 0
        baseline = simulate(trace)
        assert result.cycles >= baseline.cycles

    def test_composite_runs_end_to_end(self):
        trace = generate_trace("mcf", 8000)
        composite = CompositePredictor(
            CompositeConfig(epoch_instructions=1000).homogeneous(256)
        )
        result = simulate(trace, composite)
        assert result.coverage > 0.1
        assert result.accuracy > 0.97
        assert result.predictor_storage_bits == composite.storage_bits()

    def test_address_predictions_resolve_through_probe(self):
        trace = generate_trace("linpack", 8000)
        sap = alone("sap", 1024)
        result = simulate(trace, sap)
        assert result.predicted_loads > 0
        assert result.accuracy > 0.95


class TestStatistics:
    def test_branch_mpki_sane(self):
        result = simulate(generate_trace("gcc2k", 8000))
        assert 0 <= result.branch_mpki < 60

    def test_coverage_and_accuracy_bounds(self):
        trace = generate_trace("v8", 6000)
        composite = CompositePredictor(
            CompositeConfig(epoch_instructions=1000).homogeneous(256)
        )
        result = simulate(trace, composite)
        assert 0.0 <= result.coverage <= 1.0
        assert 0.0 <= result.accuracy <= 1.0
        assert result.correct_predictions <= result.predicted_loads

    def test_no_predictor_is_default(self):
        trace = generate_trace("coremark", 2000)
        assert simulate(trace, NoPredictor()).cycles == simulate(trace).cycles
