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


class TestCoreConfigValidation:
    """Bad values raise a one-line ValueError naming the field, where
    they used to run silently or crash inside the loop."""

    @pytest.mark.parametrize("kwargs, field", [
        # Any other string used to select the perfect-disambiguation
        # oracle.
        ({"memory_dependence": "store_sets"}, "memory_dependence"),
        ({"memory_dependence": "oracle"}, "memory_dependence"),
        # Ran every non-load op in 0 cycles.
        ({"latencies": {}}, "latencies"),
        ({"latencies": {**DEFAULT_LATENCIES, OpClass.INT_ALU: 0}},
         "latencies"),
        ({"latencies": {**DEFAULT_LATENCIES, OpClass.NOP: 1.5}},
         "latencies"),
        # Ran with a negative front-end depth.
        ({"fetch_to_execute": 1}, "fetch_to_execute"),
        # Ran as if the width were 1.
        ({"fetch_width": 0}, "fetch_width"),
        ({"commit_width": 0}, "commit_width"),
        # Died with a ZeroDivisionError in the loop.
        ({"rob_entries": 0}, "rob_entries"),
        ({"iq_entries": 0}, "iq_entries"),
        ({"ldq_entries": -1}, "ldq_entries"),
        ({"stq_entries": 0}, "stq_entries"),
        ({"ls_lanes": 0}, "ls_lanes"),
        ({"generic_lanes": 0}, "generic_lanes"),
        ({"paq_entries": 0}, "paq_entries"),
        ({"vpe_entries": 0}, "vpe_entries"),
        ({"ras_entries": 0}, "ras_entries"),
        ({"redirect_penalty": -1}, "redirect_penalty"),
        ({"paq_queue_delay": -1}, "paq_queue_delay"),
        ({"store_forward_latency": -1}, "store_forward_latency"),
        ({"ssit_entries": 1000}, "ssit_entries"),
        ({"lfst_entries": 0}, "lfst_entries"),
        ({"rob_entries": True}, "rob_entries"),
        ({"fetch_width": 2.0}, "fetch_width"),
    ])
    def test_rejects(self, kwargs, field):
        with pytest.raises(ValueError, match=f"CoreConfig.{field}") as err:
            CoreConfig(**kwargs)
        assert "\n" not in str(err.value)

    def test_missing_latencies_are_named(self):
        latencies = dict(DEFAULT_LATENCIES)
        del latencies[OpClass.FP_DIV]
        with pytest.raises(ValueError, match="FP_DIV"):
            CoreConfig(latencies=latencies)


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
