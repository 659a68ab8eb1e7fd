"""Tests for core configuration and simulation result metrics."""

import pytest

from repro.isa.instruction import OpClass
from repro.pipeline.config import DEFAULT_LATENCIES, CoreConfig
from repro.pipeline.result import SimResult


class TestCoreConfig:
    def test_paper_table_iii_defaults(self):
        cfg = CoreConfig()
        assert cfg.fetch_width == 4
        assert cfg.issue_width == 8
        assert cfg.ls_lanes + cfg.generic_lanes == cfg.issue_width
        assert (cfg.rob_entries, cfg.iq_entries,
                cfg.ldq_entries, cfg.stq_entries) == (224, 97, 72, 56)
        assert cfg.fetch_to_execute == 13

    def test_frontend_depth_consistent(self):
        cfg = CoreConfig()
        # fetch + depth (dispatch) + 1 (issue-eligible) + 1 (execute)
        assert cfg.frontend_depth + 2 == cfg.fetch_to_execute

    def test_latencies_cover_non_load_ops(self):
        for op in OpClass:
            if op is not OpClass.LOAD:
                assert op in DEFAULT_LATENCIES

    def test_division_slower_than_alu(self):
        assert DEFAULT_LATENCIES[OpClass.INT_DIV] > \
            DEFAULT_LATENCIES[OpClass.INT_ALU]


class TestSimResult:
    def _result(self, **kw):
        base = dict(workload="w", instructions=1000, cycles=500)
        base.update(kw)
        return SimResult(**base)

    def test_ipc(self):
        assert self._result().ipc == 2.0

    def test_coverage_of_predictable(self):
        result = self._result(predictable_loads=100, predicted_loads=40)
        assert result.coverage == 0.4

    def test_coverage_empty(self):
        assert self._result().coverage == 0.0

    def test_accuracy(self):
        result = self._result(predicted_loads=50, correct_predictions=49)
        assert result.accuracy == 0.98

    def test_accuracy_no_predictions_is_zero(self):
        assert self._result().accuracy == 0.0

    def test_timing_and_functional_agree_on_the_accuracy_of_nothing(self):
        """A predictor that never predicts has no accuracy in either
        model; the timing model once reported a vacuous 1.0."""
        from repro.composite import CompositeConfig, CompositePredictor
        from repro.harness.functional import run_functional
        from repro.isa.instruction import Instruction
        from repro.isa.trace import Trace
        from repro.pipeline import simulate

        trace = Trace("no-loads", [
            Instruction(pc=4 * (i + 1), op=OpClass.INT_ALU)
            for i in range(200)
        ])

        def host():
            return CompositePredictor(CompositeConfig().homogeneous(64))

        timing = simulate(trace, host())
        functional = run_functional(trace, host())
        assert timing.predicted_loads == functional.predicted_loads == 0
        assert timing.accuracy == functional.accuracy == 0.0

    def test_branch_mpki(self):
        result = self._result(branch_mispredictions=5)
        assert result.branch_mpki == 5.0

    def test_speedup_over(self):
        fast = self._result(cycles=400)
        slow = self._result(cycles=500)
        assert fast.speedup_over(slow) == pytest.approx(0.25)
        assert slow.speedup_over(fast) == pytest.approx(-0.2)

    def test_speedup_requires_same_length(self):
        with pytest.raises(ValueError):
            self._result().speedup_over(self._result(instructions=9))
