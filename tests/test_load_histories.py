"""The shared load histories: one derivation, equal to the scalar registers.

:func:`repro.branch.history.load_histories` derives every predictable
load's fetch-time PC, direction, path and load path once per trace, as
numpy columns; the timing model's probes, the context-aware components'
per-load hashes and the functional backend all read it.  These tests
hold it to a program-order :class:`~repro.branch.history.HistorySet`
replay of the trace's columns -- on every smoke workload and on the
fuzzed programs of ``tests/test_fuzz_equivalence.py`` -- and count its
derivations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fuzz_equivalence import FUZZ_EXAMPLES, _build, _step

from repro.branch import history
from repro.branch.history import HistorySet, load_histories
from repro.common.bits import mask
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness.functional import run_functional
from repro.harness.presets import SMOKE
from repro.harness.runner import clear_caches
from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
)
from repro.pipeline.core import simulate
from repro.workloads.generator import generate_trace

_COND = int(OpClass.BRANCH_COND)


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_caches()
    yield
    clear_caches()


def replay(trace) -> dict:
    """Each predictable load's PC and fetch-time registers, from the
    scalar pushes in program order."""
    registers = HistorySet()
    out = {"pc": [], "direction": [], "path": [], "load_path": []}
    cols = trace.pack()
    for i in range(len(cols)):
        op = cols.op[i]
        pc = cols.pc[i]
        flags = cols.flags[i]
        if op == _COND:
            registers.push_branch(pc, flags & FLAG_TAKEN)
        elif OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST:
            registers.push_unconditional(pc)
        elif op == OP_LOAD or op == OP_STORE:
            if flags & FLAG_PREDICTABLE:
                out["pc"].append(pc)
                out["direction"].append(registers.direction)
                out["path"].append(registers.path)
                out["load_path"].append(registers.load_path)
            registers.push_memory(pc)
    return out


def assert_matches_replay(trace) -> None:
    shared = history.derive_load_histories(trace.pack())
    expected = replay(trace)
    directions, paths, load_paths = shared.snapshots()
    assert shared.pc.tolist() == expected["pc"]
    assert directions == expected["direction"]
    assert shared.direction.tolist() == [
        d & mask(64) for d in expected["direction"]
    ]
    assert shared.path.tolist() == list(paths) == expected["path"]
    assert (shared.load_path.tolist() == list(load_paths)
            == expected["load_path"])


class TestEqualsTheScalarRegisters:
    @pytest.mark.parametrize("workload", SMOKE.workloads)
    def test_smoke_workload(self, workload):
        trace = generate_trace(workload, 5000, 0)
        assert_matches_replay(trace)
        assert any(d >> 64 for d in load_histories(trace).snapshots()[0])

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(
        body=st.lists(_step, min_size=1, max_size=12),
        repeats=st.integers(1, 60),
        tail=st.lists(_step, max_size=8),
    )
    def test_fuzzed_program(self, body, repeats, tail):
        assert_matches_replay(_build(body, repeats, tail))


class TestOneDerivationPerTrace:
    def test_timing_then_functional_derive_once(self, monkeypatch):
        derived = []
        derive = history.derive_load_histories

        def counted(columns):
            derived.append(1)
            return derive(columns)

        monkeypatch.setattr(history, "derive_load_histories", counted)
        trace = generate_trace("gcc2k", 3000, 0)
        config = CompositeConfig().homogeneous(256)
        simulate(trace, CompositePredictor(config))
        simulate(trace, CompositePredictor(config), seed=1)
        run_functional(trace, CompositePredictor(config))
        assert len(derived) == 1

    def test_functional_runs_build_no_full_width_direction(self):
        trace = generate_trace("gcc2k", 3000, 0)
        run_functional(
            trace, CompositePredictor(CompositeConfig().homogeneous(256))
        )
        histories = load_histories(trace)
        assert histories._branch_states is histories._snapshots is None
        simulate(trace)
        assert histories._snapshots is not None
