"""Bit-exactness: a session over the wire == the same spec in-process.

The acceptance proof for the serving layer.  One workload trace is
flattened to instruction events and replayed three ways with the same
predictor spec:

1. :func:`repro.harness.functional.run_functional` for composites and
   lone canonical components (one-component plain composites), and the
   per-instruction interpreter it matches bit for bit
   (``tests/oracles/functional_loop.py``) for the hosts it rejects --
   EVES, LAP/SVP and no predictor (the reference program-order
   evaluation loop);
2. a local :class:`PredictorSession` fed ``apply_batch`` in chunks;
3. a session on a live server, driven over TCP in chunks.

All three must agree on every aggregate counter, and (2) vs (3) must
produce *bit-identical per-load decision records* -- same chosen
component, same speculative value/address, same confident and
squashed sets, load by load.
"""

import asyncio

import pytest

from repro.branch.history import HistorySet
from repro.harness.functional import run_functional
from repro.harness.runner import build_predictor
from repro.isa.instruction import OpClass
from repro.pipeline.vp import NoPredictor
from repro.serve.client import ServeClient
from repro.serve.loadgen import trace_to_events
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import PredictorSession, resolve_spec, spec_from_name
from repro.workloads.generator import generate_trace

from oracles.functional_loop import run_functional_objects

WORKLOAD = "gcc2k"
LENGTH = 4000
SEED = 0


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WORKLOAD, LENGTH, SEED)


@pytest.fixture(scope="module")
def events(trace):
    return trace_to_events(trace)


def _local_records(spec, trace, events, chunk_size=257):
    session = PredictorSession(spec, initial_memory=trace.initial_memory)
    records = []
    for start in range(0, len(events), chunk_size):
        applied = session.apply_batch(events[start:start + chunk_size])
        records.extend(r for r in applied if r is not None)
    return session, records


def _host(spec):
    return build_predictor(resolve_spec(spec)) or NoPredictor()


def _program_order_histories(trace):
    """The raw ``(direction, path, load_path)`` registers after
    ``trace``, pushed in program order."""
    histories = HistorySet()
    for inst in trace.instructions:
        if inst.op is OpClass.BRANCH_COND:
            histories.push_branch(inst.pc, inst.taken)
        elif inst.op.is_branch:
            histories.push_unconditional(inst.pc)
        elif inst.op.is_memory:
            histories.push_memory(inst.pc)
    return histories.direction, histories.path, histories.load_path


def _wire_records(spec, events, chunk_size=257):
    async def scenario():
        server = PredictionServer(ServerConfig())
        await server.start()
        try:
            async with await ServeClient.connect(
                "127.0.0.1", server.port
            ) as client:
                await client.open_session(
                    "wire", spec,
                    workload={
                        "name": WORKLOAD, "length": LENGTH, "seed": SEED,
                    },
                )
                records = []
                for start in range(0, len(events), chunk_size):
                    applied = await client.apply(
                        "wire", events[start:start + chunk_size]
                    )
                    records.extend(
                        r for r in applied["results"] if r is not None
                    )
                closed = await client.close_session("wire")
                assert not client.stream_errors
                return closed["closed"], records
        finally:
            await server.drain()
    return asyncio.run(scenario())


class TestEventStreamEquivalence:
    def test_event_stream_preserves_instruction_count(self, trace, events):
        session = PredictorSession(None)
        session.apply_batch(events)
        assert session.instructions == len(trace)

    @pytest.mark.parametrize("spec", [
        spec_from_name("composite", 256),
        spec_from_name("lvp", 256),
        spec_from_name("eves-8kb", 256),
        # Tiny epochs: the session defers per-event ticks, so epoch
        # boundaries (monitor/fusion) must land inside batches exactly
        # where the per-instruction reference fires them.
        {"kind": "composite", "entries": 64,
         "config": {"epoch_instructions": 97}},
        spec_from_name("sap", 64),
        spec_from_name("lap", 64),
        spec_from_name("none"),
    ], ids=["composite", "lvp", "eves-8kb", "composite-epoch97", "sap",
            "lap", "none"])
    def test_session_matches_run_functional(self, trace, events, spec):
        session, _ = _local_records(spec, trace, events)
        # run_functional rejects EVES, the LAP/SVP extras and no predictor.
        rejected = (spec is None or spec["kind"] == "eves"
                    or spec.get("name") in ("lap", "svp"))
        functional = run_functional_objects if rejected else run_functional
        reference = functional(trace, _host(spec))

        assert session.loads == reference.loads
        assert session.predicted_loads == reference.predicted_loads
        assert session.correct_predictions == reference.correct_predictions
        assert session.instructions == reference.instructions
        histories = session.histories
        assert (histories.direction, histories.path, histories.load_path) \
            == _program_order_histories(trace)


class TestWireEquivalence:
    def test_wire_records_bit_identical_to_in_process(self, trace, events):
        spec = spec_from_name("composite", 256)
        local_session, local_records = _local_records(spec, trace, events)
        wire_snapshot, wire_records = _wire_records(spec, events)

        assert len(wire_records) == len(local_records)
        for index, (wire, local) in enumerate(
            zip(wire_records, local_records)
        ):
            assert wire == local, f"decision {index} diverged"

        local_snapshot = local_session.snapshot()
        for key in ("events", "instructions", "loads", "predicted_loads",
                    "correct_predictions", "accuracy", "coverage"):
            assert wire_snapshot[key] == local_snapshot[key]

    def test_chunking_does_not_change_decisions(self, trace, events):
        spec = spec_from_name("composite", 128)
        _, small_chunks = _wire_records(spec, events, chunk_size=64)
        _, one_shot = _wire_records(spec, events, chunk_size=8192)
        assert small_chunks == one_shot
