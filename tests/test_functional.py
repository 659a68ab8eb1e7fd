"""Tests for the fast functional evaluation mode."""

from repro.composite import CompositeConfig, CompositePredictor
from repro.harness.functional import run_functional
from repro.workloads import generate_trace


def _composite(per=256):
    return CompositePredictor(
        CompositeConfig(epoch_instructions=1000).homogeneous(per)
    )


class TestFunctionalRun:
    def test_counts_consistent(self):
        trace = generate_trace("coremark", 8000)
        result = run_functional(trace, _composite())
        assert result.loads == trace.stats().predictable_loads
        assert result.predicted_loads <= result.loads
        assert result.correct_predictions <= result.predicted_loads
        assert sum(result.confident_histogram) == result.loads

    def test_accuracy_high(self):
        trace = generate_trace("coremark", 10_000)
        result = run_functional(trace, _composite())
        assert result.accuracy > 0.98

    def test_no_store_conflicts_in_functional_mode(self):
        """Functional probes see all older stores, so address
        predictors validate against fresh data: the hot_flag pattern
        that mispredicts in the timing model is correct here."""
        trace = generate_trace("v8", 10_000)
        sap = CompositePredictor(
            CompositeConfig().with_entries(0, 1024, 0, 0).plain()
        )
        result = run_functional(trace, sap)
        assert result.accuracy > 0.97

    def test_deterministic(self):
        trace = generate_trace("mcf", 6000)
        a = run_functional(trace, _composite())
        b = run_functional(trace, _composite())
        assert a.predicted_loads == b.predicted_loads
        assert a.confident_histogram == b.confident_histogram

    def test_functional_matches_timing_coverage_roughly(self):
        """Coverage agrees with the timing model within a few points
        (timing adds in-flight effects and training delay)."""
        from repro.pipeline import simulate

        trace = generate_trace("coremark", 10_000)
        functional = run_functional(trace, _composite())
        timing = simulate(trace, _composite())
        assert abs(functional.coverage - timing.coverage) < 0.25

    def test_per_component_stats_present(self):
        trace = generate_trace("linpack", 8000)
        result = run_functional(trace, _composite())
        assert "sap" in result.per_component_confident
        assert result.per_component_correct.get("sap", 0) <= \
            result.per_component_confident["sap"]
