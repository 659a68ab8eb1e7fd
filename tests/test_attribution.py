"""Tests for the attribution tooling."""

from conftest import alone

from repro.composite import CompositeConfig, CompositePredictor
from repro.harness.attribution import attribute
from repro.workloads import generate_trace


def _composite():
    return CompositePredictor(
        CompositeConfig(epoch_instructions=1000).homogeneous(256)
    )


class TestAttribution:
    def test_counts_reconcile_with_result(self):
        trace = generate_trace("coremark", 8000)
        attribution = attribute(trace, _composite())
        result = attribution.result
        chosen = sum(attribution.used_correct.values()) + sum(
            attribution.used_incorrect.values()
        )
        # Chosen predictions = forwarded ones + pipeline-level drops
        # (probe misses, store conflicts, full queues).
        assert chosen == (
            result.predicted_loads + result.dropped_probe_misses
            + result.dropped_store_conflicts + result.dropped_queue_full
        )
        assert sum(attribution.used_correct.values()) >= \
            result.correct_predictions

    def test_loads_by_kernel_covers_all_predictable(self):
        trace = generate_trace("coremark", 8000)
        attribution = attribute(trace, _composite())
        assert sum(attribution.loads_by_kernel.values()) == \
            trace.stats().predictable_loads

    def test_coverage_by_kernel_bounds(self):
        trace = generate_trace("mcf", 8000)
        attribution = attribute(trace, _composite())
        for kernel, coverage in attribution.coverage_by_kernel().items():
            assert 0.0 <= coverage <= 1.0, kernel

    def test_kernel_attribution_matches_design(self):
        """Sanity: SAP owns strided loads; pointer chases stay uncovered."""
        trace = generate_trace("linpack", 12_000)
        attribution = attribute(trace, _composite())
        coverage = attribution.coverage_by_kernel()
        if "strided_sum" in coverage and "pointer_chase" in coverage:
            assert coverage["strided_sum"] > coverage["pointer_chase"]

    def test_accuracy_by_component(self):
        trace = generate_trace("sunspider", 8000)
        attribution = attribute(trace, alone("sap", 1024))
        accuracy = attribution.accuracy_by_component()
        if "sap" in accuracy:
            assert 0.9 <= accuracy["sap"] <= 1.0

    def test_top_mispredictors_shape(self):
        trace = generate_trace("v8", 8000)
        attribution = attribute(trace, _composite())
        for (kernel, component), count in attribution.top_mispredictors():
            assert isinstance(kernel, str) and isinstance(component, str)
            assert count > 0
