"""The timing model's ``SimResult`` counters reconcile with each other
and with the host's own prediction count.

Every prediction the host hands the core is either used (forwarded,
then judged correct or a value misprediction) or dropped for one of
three counted reasons; every dropped probe was first issued to the PAQ.
"""

import pytest

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness.presets import SMOKE
from repro.harness.runner import build_predictor
from repro.pipeline.core import simulate
from repro.serve.session import resolve_spec
from repro.workloads.generator import generate_trace

from test_fuzz_equivalence import SPECS

WORKLOADS = SMOKE.workloads[:5]
LENGTH = 5_000

HOSTS = [("default-composite", lambda: CompositePredictor(CompositeConfig()))]
HOSTS += [
    (f"fuzz-spec-{k}", lambda spec=spec: build_predictor(resolve_spec(spec)))
    for k, spec in enumerate(SPECS)
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_reconcile(workload):
    trace = generate_trace(workload, LENGTH, 0)
    for name, make in HOSTS:
        host = make()
        r = simulate(trace, host)
        where = f"{workload} under {name}"
        assert r.predicted_loads == (
            r.correct_predictions + r.value_mispredictions
        ), where
        assert host.stats.predicted_loads == (
            r.predicted_loads + r.dropped_queue_full
            + r.dropped_probe_misses + r.dropped_store_conflicts
        ), where
        assert r.paq_probes >= (
            r.dropped_probe_misses + r.dropped_store_conflicts
        ), where
        assert r.predicted_loads <= r.predictable_loads <= r.loads, where
