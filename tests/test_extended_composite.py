"""Integration tests for the six-component (footnote-1) composite.

``run_functional`` does not replay LAP/SVP extras, so these run through
the per-instruction interpreter in ``tests/oracles/functional_loop.py``.
"""

from repro.composite import CompositeConfig, CompositePredictor
from repro.workloads import generate_trace

from oracles.functional_loop import run_functional_objects


def _six(per=128):
    return CompositePredictor(CompositeConfig(
        epoch_instructions=1000, table_fusion=False,
        extra_components=(("lap", per), ("svp", per)),
    ).homogeneous(per))


class TestSixComponentComposite:
    def test_histogram_sized_for_six(self):
        composite = _six()
        assert len(composite.stats.confident_histogram) == 7

    def test_runs_and_stays_accurate(self):
        result = run_functional_objects(
            generate_trace("coremark", 10_000), _six()
        )
        assert result.accuracy > 0.97
        assert result.coverage > 0.2

    def test_stats_keyed_by_all_six(self):
        composite = _six()
        run_functional_objects(generate_trace("mcf", 8_000), composite)
        assert set(composite.stats.chosen_by) == {
            "lvp", "sap", "cvp", "cap", "lap", "svp",
        }

    def test_extras_add_little_coverage(self):
        """The footnote-1 redundancy at the functional level."""
        trace = generate_trace("linpack", 10_000)
        four = CompositePredictor(CompositeConfig(
            epoch_instructions=1000, table_fusion=False,
        ).homogeneous(128))
        four_result = run_functional_objects(trace, four)
        six_result = run_functional_objects(trace, _six())
        assert six_result.coverage - four_result.coverage < 0.08

    def test_monitor_handles_extras(self):
        from dataclasses import replace

        config = replace(
            CompositeConfig(
                epoch_instructions=1000, table_fusion=False,
                extra_components=(("lap", 128),),
            ).homogeneous(128),
            accuracy_monitor="pc-am",
        )
        composite = CompositePredictor(config)
        result = run_functional_objects(generate_trace("v8", 8_000), composite)
        assert result.accuracy > 0.95  # no KeyErrors, sane behaviour
