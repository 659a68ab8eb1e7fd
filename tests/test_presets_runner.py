"""Tests for experiment scales and the cached runner."""

from conftest import alone

from repro.harness.presets import FULL, QUICK, SMOKE, ExperimentScale
from repro.harness.runner import baseline_result, speedup, workload_trace
from repro.workloads.profiles import ALL_WORKLOADS


class TestScales:
    def test_full_covers_all_workloads(self):
        assert FULL.workloads == ALL_WORKLOADS

    def test_smoke_subset_of_quick_philosophy(self):
        assert SMOKE.trace_length <= QUICK.trace_length <= FULL.trace_length

    def test_workloads_are_valid(self):
        for scale in (SMOKE, QUICK):
            assert set(scale.workloads) <= set(ALL_WORKLOADS)

    def test_epoch_scaling(self):
        scale = ExperimentScale("t", ("mcf",), 24_000)
        assert scale.epoch_instructions == 2000
        tiny = ExperimentScale("t", ("mcf",), 3_000)
        assert tiny.epoch_instructions == 1000  # floor


class TestRunnerCaching:
    def test_baseline_cached(self):
        a = baseline_result("coremark", 3000)
        b = baseline_result("coremark", 3000)
        assert a is b  # same object: lru_cache hit

    def test_trace_memoized(self):
        assert workload_trace("coremark", 3000) is workload_trace(
            "coremark", 3000
        )

    def test_speedup_consistency(self):
        gain, result = speedup("coremark", 3000, alone("sap", 256))
        baseline = baseline_result("coremark", 3000)
        assert gain == result.speedup_over(baseline)
