"""Tests for the attribution tooling."""

from dataclasses import asdict

from conftest import alone

from repro.composite import CompositeConfig, CompositePredictor
from repro.harness import attribution as attribution_module
from repro.harness.attribution import _AttributingHost, attribute
from repro.pipeline.vp import NO_EPOCHS, NoPredictor
from repro.workloads import generate_trace

from oracles.core_loop import simulate_objects


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


class TestTickHandOff:
    def test_wrapper_relays_the_hosts_tick_distance(self):
        host = _AttributingHost(_composite(), {}, None)
        assert host.tick_instructions(2500) == 500
        assert _AttributingHost(NoPredictor(), {}, None).tick_instructions(
            7
        ) == NO_EPOCHS

    def test_matches_attribution_through_the_oracle(self, monkeypatch):
        """The model ticks the wrapped host only at epoch ends, the
        oracle every instruction; both attribute alike."""
        config = CompositeConfig(
            epoch_instructions=97, accuracy_monitor="m-am",
            fusion_observe_epochs=1, fusion_revert_epochs=2,
        ).homogeneous(64)
        trace = generate_trace("sunspider", 4000)
        attribution = attribute(trace, CompositePredictor(config))
        monkeypatch.setattr(attribution_module, "simulate", simulate_objects)
        reference = attribute(trace, CompositePredictor(config))
        assert asdict(attribution.result) == asdict(reference.result)
        assert attribution.used_correct == reference.used_correct
        assert attribution.used_incorrect == reference.used_incorrect
        assert attribution.confident_unused == reference.confident_unused
        assert sum(attribution.used_correct.values()) > 0
