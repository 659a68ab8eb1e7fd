"""The recorded front end: memo identity, lifetime, layouts, deadlines.

:mod:`repro.pipeline.frontend` records a trace's branch outcomes and
history snapshots once and the columnar core loop replays them.  These
tests pin down when a stream is shared, when it is recorded again and
when it is released; ``tests/test_columnar_equivalence.py`` proves the
replay bit-exact against the object-path oracle in ``tests/oracles``.
"""

import gc
from dataclasses import asdict

import pytest

from repro.branch.unit import BranchUnit
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.runner import clear_caches
from repro.pipeline import frontend
from repro.pipeline.core import CoreModel, SimulationInterrupted, simulate
from repro.pipeline.vp import EvesAdapter
from repro.workloads.generator import clear_trace_caches, generate_trace

from oracles.core_loop import live_branch_unit, simulate_objects


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def recordings(monkeypatch):
    """Count recording passes, keyed by trace name and seed."""
    seen = []
    record = frontend._record

    def counted(trace, *args):
        seen.append((trace.name, trace.seed))
        return record(trace, *args)

    monkeypatch.setattr(frontend, "_record", counted)
    return seen


def _composite():
    return CompositePredictor(CompositeConfig().homogeneous(64))


def _streams(trace):
    return list(frontend._streams.get(trace, ()))


class TestMemoIdentity:
    def test_traces_differing_only_in_seed_never_share(self, recordings):
        a = generate_trace("mcf", 1500, 0)
        b = generate_trace("mcf", 1500, 1)
        assert (a.name, len(a)) == (b.name, len(b))
        results = {}
        for trace in (a, b, a, b):
            results.setdefault(trace.seed, []).append(
                asdict(simulate(trace, _composite()))
            )
        assert recordings == [("mcf", 0), ("mcf", 1)]
        (stream_a,), (stream_b,) = _streams(a), _streams(b)
        assert stream_a is not stream_b
        for trace in (a, b):
            oracle = asdict(simulate_objects(trace, _composite()))
            assert results[trace.seed] == [oracle, oracle]

    def test_core_seed_is_part_of_the_key(self, recordings):
        trace = generate_trace("astar", 1500, 0)
        for seed in (0, 1, 0):
            CoreModel(seed=seed).run(trace)
        assert len(recordings) == 2
        assert len(_streams(trace)) == 2

    def test_a_fresh_trace_object_records_again(self, recordings):
        # Keyed on the object, not on id(): a new trace that reuses a
        # dead one's address must not inherit its stream.
        for _ in range(3):
            trace = generate_trace("astar", 1200, 0)
            simulate(trace)
            del trace
            clear_trace_caches()
            gc.collect()
        assert len(recordings) == 3


class TestLifetime:
    def test_clear_caches_releases_streams(self, recordings):
        trace = generate_trace("coremark", 1500, 0)
        simulate(trace)
        assert len(_streams(trace)) == 1
        clear_caches()
        assert len(frontend._streams) == 0
        simulate(trace)
        assert len(recordings) == 2

    def test_stream_dies_with_its_trace(self):
        trace = generate_trace("coremark", 1500, 0)
        simulate(trace)
        assert len(frontend._streams) == 1
        clear_trace_caches()
        del trace
        gc.collect()
        assert len(frontend._streams) == 0


class TestLayouts:
    def test_branch_folds_match_the_live_unit(self):
        model = CoreModel()
        assert model.fold_layout == BranchUnit().histories.fold_layout()
        assert live_branch_unit(model).histories.fold_layout() == (
            model.fold_layout
        )

    def test_longer_layout_serves_the_baseline(self, recordings):
        trace = generate_trace("astar", 1500, 0)
        simulate(trace, _composite())
        simulate(trace)
        assert len(recordings) == 1

    def test_extending_a_layout_replaces_its_stream(self, recordings):
        trace = generate_trace("astar", 1500, 0)
        simulate(trace)
        simulate(trace, _composite())
        simulate(trace)
        assert len(recordings) == 2
        (stream,) = _streams(trace)
        assert stream.layout == CoreModel(predictor=_composite()).fold_layout

    def test_unrelated_layouts_keep_separate_streams(self, recordings):
        trace = generate_trace("astar", 1500, 0)
        simulate(trace, _composite())
        simulate(trace, EvesAdapter(eves_8kb()))
        simulate(trace, _composite())
        simulate(trace, EvesAdapter(eves_8kb()))
        assert len(recordings) == 2
        assert len(_streams(trace)) == 2

    def test_columnar_run_allocates_no_branch_unit(self, monkeypatch):
        trace = generate_trace("astar", 1500, 0)
        CoreModel(predictor=_composite()).run(trace)

        def refuse(*args, **kwargs):
            raise AssertionError("a replayed run built a BranchUnit")

        monkeypatch.setattr(BranchUnit, "__init__", refuse)
        CoreModel(predictor=_composite()).run(trace)


class TestDeadlines:
    def test_interrupt_fires_during_the_recording_pass(self):
        trace = generate_trace("mcf", 3000, 2)
        calls = []
        with pytest.raises(SimulationInterrupted) as raised:
            simulate(
                trace, _composite(),
                interrupt=lambda done: calls.append(done) or True,
                interrupt_interval=256,
            )
        assert calls == [256]
        assert raised.value.instructions_done == 256
        # The aborted pass memoizes nothing; a later run is unaffected.
        assert _streams(trace) == []
        assert asdict(simulate(trace, _composite())) == asdict(
            simulate_objects(trace, _composite())
        )
