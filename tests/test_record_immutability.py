"""Hosts and components never mutate the per-load records they are handed.

:class:`LoadProbe`, :class:`Prediction` and :class:`CompositeDecision`
are mutable slots dataclasses (a frozen
dataclass costs one ``object.__setattr__`` per field at construction,
and every load builds several).  Read-only is a convention; these tests
hold every caller to it.  Each component's ``predict``/``train`` (and
``penalize``/``invalidate``; EVES' E-Stride and E-VTAGE count as
components) and the host's ``predict`` and ``validate_and_train`` are
wrapped: the ``dataclasses.astuple`` of every
record argument is taken before the call and must be unchanged after
it, and a decision must reach ``validate_and_train`` exactly as
``predict`` returned it.
"""

from __future__ import annotations

from dataclasses import astuple, is_dataclass

import pytest
from conftest import alone

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.presets import SMOKE
from repro.pipeline.core import simulate
from repro.serve.session import PredictorSession, apply_events
from repro.workloads.generator import generate_trace

HOSTS = {
    "plain-composite": lambda: CompositePredictor(
        CompositeConfig().homogeneous(64).plain()
    ),
    # Default PC-AM and smart training; short epochs, so table fusion
    # engages within a 2 K-instruction trace.
    "pc-am-fusion": lambda: CompositePredictor(CompositeConfig(
        epoch_instructions=100,
    ).homogeneous(64)),
    "lap": lambda: alone("lap", 64),
    "eves": eves_8kb,
}

_COMPONENT_METHODS = ("predict", "train", "penalize", "invalidate")


class RecordGuard:
    """Wraps a host and its components; counts the calls it checked."""

    def __init__(self) -> None:
        self.calls = 0
        self.decisions = 0
        self._issued: dict[int, tuple] = {}

    def _checked(self, fn, label):
        def wrapper(*args):
            before = [astuple(a) for a in args if is_dataclass(a)]
            result = fn(*args)
            after = [astuple(a) for a in args if is_dataclass(a)]
            assert before == after, f"{label} mutated its record arguments"
            self.calls += 1
            return result
        return wrapper

    def wrap_component(self, name: str, component) -> None:
        for method in _COMPONENT_METHODS:
            fn = getattr(component, method, None)
            if fn is not None:
                setattr(component, method,
                        self._checked(fn, f"{name}.{method}"))

    def wrap_host(self, host) -> None:
        components = getattr(host, "components", None)
        if components is not None:
            for name, component in components.items():
                self.wrap_component(name, component)
        else:
            self.wrap_component("estride", host.estride)
            self.wrap_component("evtage", host.evtage)
        predict = self._checked(host.predict, "host.predict")
        validate = self._checked(
            host.validate_and_train, "host.validate_and_train"
        )

        def guarded_predict(probe):
            decision = predict(probe)
            self._issued[id(decision)] = astuple(decision)
            return decision

        def guarded_validate(decision, addr, size, value, correctness):
            issued = self._issued.pop(id(decision))
            assert astuple(decision) == issued, (
                "decision changed between predict and validate_and_train"
            )
            self.decisions += 1
            return validate(decision, addr, size, value, correctness)

        host.predict = guarded_predict
        host.validate_and_train = guarded_validate


@pytest.mark.parametrize("host_name", sorted(HOSTS))
@pytest.mark.parametrize("workload", SMOKE.workloads)
def test_core_loop_leaves_records_unchanged(workload, host_name):
    trace = generate_trace(workload, 2000, 0)
    host = HOSTS[host_name]()
    guard = RecordGuard()
    guard.wrap_host(host)
    result = simulate(trace, host)
    assert guard.decisions == result.predictable_loads > 0
    assert guard.calls > 2 * guard.decisions


def test_fusion_engages_in_the_short_epoch_host():
    """The fusion host fuses tables within 2 K instructions, so the
    runs above cover predict and train on fused tables."""
    host = HOSTS["pc-am-fusion"]()
    simulate(generate_trace("linpack", 2000, 0), host)
    assert host.fusion.state.fusions_performed > 0


def _events(n_loads: int = 40) -> list[dict]:
    events = []
    for i in range(n_loads):
        pc = 0x1000 + (i % 5) * 4
        addr = 0x8000 + (i % 3) * 8
        events.append({"k": "s", "pc": pc + 1, "addr": addr, "size": 8,
                       "value": i % 4})
        events.append({"k": "l", "pc": pc, "addr": addr, "size": 8,
                       "value": i % 4, "pred": True})
        if i % 3 == 0:
            events.append({"k": "b", "pc": pc + 2, "taken": bool(i & 1),
                           "cond": True})
    return events


@pytest.mark.parametrize("spec", (
    {"kind": "composite", "entries": 64},
    {"kind": "eves", "variant": "8kb"},
), ids=("composite", "eves"))
def test_serve_session_leaves_records_unchanged(spec):
    session = PredictorSession(spec, session_id="s1")
    guard = RecordGuard()
    guard.wrap_host(session.predictor)
    apply_events(session, _events())
    applied = guard.decisions
    assert applied > 0

    session.predict(0x1000)
    session.train(0x8000, 8, 0)
    assert guard.decisions == applied + 1
