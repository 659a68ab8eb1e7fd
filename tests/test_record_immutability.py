"""The decision contract: one flat per-load record, handed back unchanged.

A host's ``predict`` answers a load with one decision record (see
:mod:`repro.predictors.types`): a list of plain ints -- the load's
fields, the confident and squashed slot masks, the chosen slot and the
per-slot predicted ints -- and nothing per load besides.  The record is
read-only by convention; these tests hold every host to it:

* a decision reaches ``validate_and_train`` exactly as ``predict``
  returned it (the same object, its items unchanged);
* the verdict mask never sets a slot outside the decision's confident
  mask, and a host handed one raises ``ValueError``;
* a composite's bound step returns exactly the decision records its
  method path (each live component's own ``predict``) returns, and a
  host that probes its components one by one probes each once per
  load;
* a held decision keeps no record, dict or set alive beyond itself.

The hosts are a plain composite, a PC-AM composite with smart training
and 100-instruction fusion epochs, a lone LAP, EVES, and the composite
and EVES behind a serve session's ``apply`` batch.
"""

from __future__ import annotations

import sys

import pytest
from conftest import alone, method_path

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.presets import SMOKE
from repro.pipeline.core import simulate
from repro.predictors.types import CHOSEN, CONFIDENT, PREDICTED, SQUASHED
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


def _components(host) -> dict:
    components = getattr(host, "components", None)
    if components is None:  # EVES: E-Stride is always probed first
        return {"e-stride": host.estride}
    return components


class DecisionGuard:
    """Wraps a host (and its components' ``predict``); checks the
    contract on every decision and counts what it saw."""

    def __init__(self) -> None:
        self.decisions = 0
        self.predicts = 0
        self.component_predicts = 0
        self.confident_loads = 0
        #: Every decision as returned, in order.
        self.records: list[tuple] = []
        self._issued: dict[int, tuple] = {}

    def wrap_host(self, host) -> None:
        predict = host.predict
        validate = host.validate_and_train
        width = len(host.slot_names)
        for component in _components(host).values():
            component_predict = component.predict

            def counted(*load, _predict=component_predict):
                self.component_predicts += 1
                return _predict(*load)

            component.predict = counted

        def guarded_predict(*load):
            assert len(load) == 6 and all(type(f) is int for f in load)
            decision = predict(*load)
            assert len(decision) == PREDICTED + width
            assert list(decision[:CONFIDENT]) == list(load)
            assert all(type(item) is int for item in decision[:PREDICTED])
            confident = decision[CONFIDENT]
            assert decision[SQUASHED] & ~confident == 0
            assert confident >> width == 0
            for slot in range(width):
                prediction = decision[PREDICTED + slot]
                if confident >> slot & 1:
                    assert type(prediction) is int
                else:
                    assert prediction is None
            chosen = decision[CHOSEN]
            assert chosen == -1 or confident >> chosen & 1
            self.predicts += 1
            self.records.append(tuple(decision))
            self._issued[id(decision)] = (decision, tuple(decision))
            return decision

        def guarded_validate(decision, addr, size, value, correct):
            issued, items = self._issued.pop(id(decision))
            assert issued is decision and tuple(decision) == items, (
                "decision changed between predict and validate_and_train"
            )
            assert type(correct) is int
            assert correct & ~decision[CONFIDENT] == 0
            self.decisions += 1
            self.confident_loads += decision[CONFIDENT] != 0
            return validate(decision, addr, size, value, correct)

        host.predict = guarded_predict
        host.validate_and_train = guarded_validate


@pytest.mark.parametrize("host_name", sorted(HOSTS))
@pytest.mark.parametrize("workload", SMOKE.workloads)
def test_core_loop_leaves_records_unchanged(workload, host_name):
    trace = generate_trace(workload, 2000, 0)
    host = HOSTS[host_name]()
    guard = DecisionGuard()
    guard.wrap_host(host)
    result = simulate(trace, host)
    assert guard.decisions == guard.predicts == result.predictable_loads > 0
    if host_name in ("plain-composite", "pc-am-fusion"):
        # The bound step probes no component method; its records are
        # the method path's, load for load.
        reference = method_path(HOSTS[host_name]())
        reference_guard = DecisionGuard()
        reference_guard.wrap_host(reference)
        assert simulate(trace, reference) == result
        assert guard.records == reference_guard.records
        if host_name == "plain-composite":
            assert guard.component_predicts == 0
            assert reference_guard.component_predicts == (
                guard.predicts * len(_components(host))
            )
    else:
        assert guard.component_predicts == (
            guard.predicts * len(_components(host))
        )


def test_fusion_engages_in_the_short_epoch_host():
    """The fusion host fuses tables within 2 K instructions, so the
    runs above cover predict and train on fused tables."""
    host = HOSTS["pc-am-fusion"]()
    simulate(generate_trace("linpack", 2000, 0), host)
    assert host.fusion.state.fusions_performed > 0


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_verdict_outside_confident_mask_raises(host_name):
    host = HOSTS[host_name]()
    decision = host.predict(0x1000, -1, 0, 0, 0, 0)
    outside = 1 << len(host.slot_names)
    with pytest.raises(ValueError, match="outside"):
        host.validate_and_train(
            decision, 0x8000, 8, 1, decision[CONFIDENT] | outside
        )


def test_a_held_decision_is_one_flat_record():
    """Holding a warm composite's decisions retains the record (a list
    and its item array) and the new ints of its two address
    predictions -- no probe, prediction, dict or set per load."""
    host = CompositePredictor(CompositeConfig().homogeneous(64).plain())
    load = (0x1000, -1, 0b101, 0, 0b11, 0)
    for _ in range(400):
        decision = host.predict(*load)
        host.validate_and_train(decision, 0x8000, 8, 7, decision[CONFIDENT])
    assert host.predict(*load)[CONFIDENT] == 0b1111
    held = []
    before = sys.getallocatedblocks()
    for _ in range(1000):
        held.append(host.predict(*load))
    per_decision = (sys.getallocatedblocks() - before) / len(held)
    assert per_decision < 4.5


def _events(n_loads: int) -> list[dict]:
    """Five static loads, each with its own address and value (so
    the predictors grow confident), behind a store to that address."""
    events = []
    for i in range(n_loads):
        pc = 0x1000 + (i % 5) * 4
        addr = 0x8000 + (i % 5) * 8
        events.append({"k": "s", "pc": pc + 1, "addr": addr, "size": 8,
                       "value": i % 5})
        events.append({"k": "l", "pc": pc, "addr": addr, "size": 8,
                       "value": i % 5, "pred": True})
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
    guard = DecisionGuard()
    guard.wrap_host(session.predictor)
    apply_events(session, _events(300))
    applied = guard.decisions
    assert applied > 0 and guard.confident_loads > 0

    session.predict(0x1000)
    session.train(0x8000, 8, 0)
    assert guard.decisions == applied + 1
