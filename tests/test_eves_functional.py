"""EVES behaviour on the synthetic suite (functional mode).

``run_functional`` evaluates composites only, so EVES runs through the
per-instruction interpreter in ``tests/oracles/functional_loop.py``.
"""

from repro.eves import eves_8kb, eves_32kb
from repro.harness.functional import run_functional
from repro.workloads import generate_trace

from oracles.functional_loop import run_functional_objects


class TestEvesOnSuite:
    def test_reasonable_coverage_and_accuracy(self):
        result = run_functional_objects(
            generate_trace("coremark", 15_000), eves_32kb()
        )
        assert 0.05 < result.coverage < 0.8
        assert result.accuracy > 0.97

    def test_bigger_budget_not_worse(self):
        trace = generate_trace("linpack", 15_000)
        small = run_functional_objects(trace, eves_8kb())
        large = run_functional_objects(trace, eves_32kb())
        assert large.coverage >= small.coverage - 0.05

    def test_composite_covers_more_than_eves(self):
        """The heart of Figure 11: value-only EVES cannot reach the
        address-predictable loads the composite covers via SAP/CAP."""
        from repro.composite import CompositeConfig, CompositePredictor

        trace = generate_trace("mpeg2dec", 15_000)
        eves = run_functional_objects(trace, eves_32kb())
        composite = run_functional(trace, CompositePredictor(
            CompositeConfig(epoch_instructions=1250).homogeneous(256)
        ))
        assert composite.coverage > eves.coverage
