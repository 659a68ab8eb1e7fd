"""Tests for the store-set memory dependence predictor."""

from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instruction import OpClass
from repro.pipeline import core
from repro.pipeline.core import simulate
from repro.pipeline.memdep import StoreSetPredictor

from oracles import core_loop
from oracles.core_loop import simulate_objects
from test_fuzz_equivalence import FUZZ_EXAMPLES, PCS, WORDS, _build, _step


class TestStoreSets:
    def test_cold_load_is_unconstrained(self):
        predictor = StoreSetPredictor()
        assert predictor.load_wait_until(0x1000) == -1

    def test_violation_creates_store_set(self):
        predictor = StoreSetPredictor()
        predictor.record_violation(0x1000, 0x2000)
        predictor.note_store(0x2000, data_ready=500)
        assert predictor.load_wait_until(0x1000) == 500

    def test_unrelated_store_does_not_throttle(self):
        predictor = StoreSetPredictor()
        predictor.record_violation(0x1000, 0x2000)
        predictor.note_store(0x3000, data_ready=500)  # different set
        assert predictor.load_wait_until(0x1000) == -1

    def test_set_merging(self):
        predictor = StoreSetPredictor()
        predictor.record_violation(0x1000, 0x2000)
        predictor.record_violation(0x1000, 0x3000)  # second store joins
        predictor.note_store(0x3000, data_ready=900)
        assert predictor.load_wait_until(0x1000) == 900

    def test_merge_existing_sets(self):
        predictor = StoreSetPredictor()
        predictor.record_violation(0x1000, 0x2000)
        predictor.record_violation(0x5000, 0x6000)
        predictor.record_violation(0x1000, 0x6000)  # bridges both sets
        predictor.note_store(0x6000, data_ready=700)
        assert predictor.load_wait_until(0x1000) == 700

    def test_flash_clear(self):
        predictor = StoreSetPredictor(clear_interval=3)
        predictor.record_violation(0x1000, 0x2000)
        for _ in range(4):
            predictor.note_store(0x2000, data_ready=100)
        assert predictor.load_wait_until(0x1000) == -1  # cleared

    def test_flash_clear_keeps_the_tables(self):
        """The timing loop binds both tables once per run."""
        predictor = StoreSetPredictor(clear_interval=3)
        ssit, lfst = predictor._ssit, predictor._lfst
        predictor.record_violation(0x1000, 0x2000)
        for _ in range(3):
            predictor.note_store(0x2000, data_ready=100)
        assert predictor._ssit is ssit and predictor._lfst is lfst
        assert set(ssit) == {-1} and not lfst

    def test_counters(self):
        predictor = StoreSetPredictor()
        predictor.record_violation(0x1000, 0x2000)
        predictor.note_store(0x2000, 5)
        predictor.load_wait_until(0x1000)
        assert predictor.violations == 1
        assert predictor.waits_enforced == 1

    def test_storage_positive(self):
        assert StoreSetPredictor().storage_bits() > 0


class TestPipelineIntegration:
    def test_violations_detected_and_learned(self):
        """A tight store->load pair first violates, then waits."""
        from repro.isa.instruction import Instruction, OpClass
        from repro.isa.trace import Trace
        from repro.memory.image import MemoryImage
        from repro.pipeline import simulate

        instructions = []
        for i in range(100):
            instructions.append(Instruction(
                pc=0x1000, op=OpClass.STORE, srcs=(1,), addr=0x8000,
                size=8, value=i,
            ))
            instructions.append(Instruction(
                pc=0x1004, op=OpClass.LOAD, dest=2, addr=0x8000, size=8,
                value=i,
            ))
        trace = Trace("dep", instructions)
        trace.initial_memory = MemoryImage()
        result = simulate(trace)
        assert 1 <= result.memory_order_violations < 10  # learned quickly

    def test_perfect_oracle_has_no_violations(self):
        from repro.pipeline import CoreConfig, simulate
        from repro.workloads import generate_trace

        config = CoreConfig(memory_dependence="perfect")
        result = simulate(generate_trace("v8", 8000), config=config)
        assert result.memory_order_violations == 0

    def test_store_sets_converge_on_real_workloads(self):
        from repro.pipeline import simulate
        from repro.workloads import generate_trace

        result = simulate(generate_trace("v8", 8000))
        # Violations happen but the predictor keeps them rare.
        assert result.memory_order_violations < result.loads * 0.02


# ----------------------------------------------------------------------
# Flash-clears inside a timing run
# ----------------------------------------------------------------------

#: Stores between flash-clears: a few per loop iteration.
CLEAR_INTERVAL = 5

#: Two store -> load pairs whose stores wait on a divide chain, so the
#: loads issue past them, violate, join store sets and then wait,
#: across a flash-clear every few iterations.
VIOLATING_PROGRAM = (
    [("alu", PCS[3], 1, [1], OpClass.INT_DIV),
     ("store", PCS[2], (WORDS[0], 0), 8, 5, 1),
     ("load", PCS[1], (WORDS[0], 0), 8, False),
     ("store", PCS[6], (WORDS[1], 0), 8, 9, 1),
     ("load", PCS[5], (WORDS[1], 0), 8, False)],
    40,
    [],
)


def _assert_matches_oracle_across_clears(trace):
    """``trace`` through the model and the oracle, each with store-set
    predictors built the same way: flash-cleared every
    ``CLEAR_INTERVAL`` stores."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (core, core_loop):
            patch.setattr(module, "StoreSetPredictor", partial(
                StoreSetPredictor, clear_interval=CLEAR_INTERVAL,
            ))
        result = simulate(trace)
        assert asdict(result) == asdict(simulate_objects(trace))
    return result


class TestFlashClearInARun:
    def test_fixed_program(self):
        result = _assert_matches_oracle_across_clears(
            _build(*VIOLATING_PROGRAM)
        )
        memdep = result.extra["memdep"]
        # Violations recur after clears, and learned sets make loads wait.
        assert result.memory_order_violations > 2
        assert memdep["waits_enforced"] > 0

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(body=st.lists(_step, min_size=1, max_size=12),
           repeats=st.integers(1, 60),
           tail=st.lists(_step, max_size=8))
    def test_fuzzed_programs(self, body, repeats, tail):
        _assert_matches_oracle_across_clears(_build(body, repeats, tail))
