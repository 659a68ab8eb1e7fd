"""Generation and every trace reader in the package run on columns.

Generated traces are born as packed columns, and the readers (trace
statistics, the serve event stream, the load classifier, attribution
and the Table V walk) zip over them: none builds an
:class:`Instruction`.  These tests
make building one raise and run each path.
"""

import pytest

from repro.classify.oracle import classify_trace
from repro.harness.attribution import attribute
from repro.harness.experiments import table5_listing1
from repro.harness.runner import build_predictor
from repro.isa.columns import TraceColumns
from repro.isa.instruction import Instruction
from repro.serve.loadgen import trace_to_events
from repro.workloads import store as trace_store
from repro.workloads.generator import clear_trace_caches, generate_trace
from repro.workloads.listing1 import listing1_trace


class ObjectBuilt(AssertionError):
    pass


def _refuse(*args, **kwargs):
    raise ObjectBuilt("an Instruction object was built")


@pytest.fixture
def no_objects(monkeypatch):
    monkeypatch.delenv(trace_store.ENV_VAR, raising=False)
    clear_trace_caches()
    monkeypatch.setattr(Instruction, "__init__", _refuse)
    monkeypatch.setattr(TraceColumns, "materialize", _refuse)
    yield
    clear_trace_caches()


def test_the_guard_catches_object_use(no_objects):
    trace = generate_trace("coremark", 500)
    with pytest.raises(ObjectBuilt):
        trace.instructions


def test_generation_and_readers_build_no_objects(no_objects):
    trace = generate_trace("equake", 3000)
    assert trace.stats().loads > 0
    events = trace_to_events(trace)
    assert sum(1 for event in events if event["k"] == "l") > 0
    assert sum(classify_trace(trace).counts.values()) > 0
    attribution = attribute(trace, build_predictor(
        {"kind": "component", "name": "lvp", "entries": 256}
    ))
    assert attribution.loads_by_kernel
    assert len(listing1_trace(outer_m=4)) > 0
    table = table5_listing1(outer_m=4)
    assert set(table["first_predicted_inner_iteration"])
