"""The recorded memory hierarchy: memo identity, lifetime, deadlines.

:mod:`repro.memory.recording` records a trace's cache, TLB and
prefetcher calls once per hierarchy configuration and the columnar core
loop replays them.  These tests pin down when a recording is shared,
when it is made again and when it is released;
``tests/test_columnar_equivalence.py`` proves the replay bit-exact
against the live hierarchy the object-path oracle drives.
"""

import gc
from bisect import bisect_right
from dataclasses import asdict

import pytest
from conftest import memo_entries

from repro.common import tracememo
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.runner import clear_caches
from repro.memory import recording
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import CoreModel, SimulationInterrupted, simulate
from repro.workloads.generator import clear_trace_caches, generate_trace

from oracles.core_loop import simulate_objects


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def recordings(monkeypatch):
    """Count recording passes, keyed by trace name and warm_l3."""
    seen = []
    record = recording._record

    def counted(trace, config, warm, *args):
        seen.append((trace.name, warm))
        return record(trace, config, warm, *args)

    monkeypatch.setattr(recording, "_record", counted)
    return seen


def _composite():
    return CompositePredictor(CompositeConfig().homogeneous(64))


def _recordings(trace):
    return list(memo_entries(trace, "hierarchy").values())


class TestMemoIdentity:
    def test_every_predictor_assembly_shares_one_recording(self, recordings):
        trace = generate_trace("astar", 1500, 0)
        for host in (None, _composite(), eves_8kb(),
                     None, _composite()):
            simulate(trace, host)
        assert recordings == [("astar", True)]
        (made,) = _recordings(trace)
        assert isinstance(made, recording.HierarchyRecording)

    def test_core_seed_is_not_part_of_the_key(self, recordings):
        # The core seed moves the branch unit, never the hierarchy.
        trace = generate_trace("astar", 1500, 0)
        for seed in (0, 1, 2):
            CoreModel(seed=seed).run(trace)
        assert len(recordings) == 1

    def test_hierarchy_config_and_warm_l3_are_the_key(self, recordings):
        trace = generate_trace("mcf", 1500, 0)
        configs = (
            CoreConfig(),
            CoreConfig(warm_l3=False),
            CoreConfig(hierarchy=HierarchyConfig(memory_latency=800)),
            CoreConfig(),
            CoreConfig(warm_l3=False),
        )
        for config in configs:
            simulate(trace, config=config)
        assert recordings == [("mcf", True), ("mcf", False), ("mcf", True)]
        assert len(_recordings(trace)) == 3

    def test_replayed_run_builds_no_hierarchy(self, monkeypatch):
        trace = generate_trace("astar", 1500, 0)
        simulate(trace, _composite())

        def refuse(*args, **kwargs):
            raise AssertionError("a replayed run built a MemoryHierarchy")

        monkeypatch.setattr(MemoryHierarchy, "__init__", refuse)
        simulate(trace, _composite())
        with pytest.raises(AssertionError, match="built a MemoryHierarchy"):
            simulate(trace, config=CoreConfig(paq_prefetch_on_miss=True))


class TestLifetime:
    def test_clear_caches_releases_recordings(self, recordings):
        trace = generate_trace("coremark", 1500, 0)
        simulate(trace)
        assert len(_recordings(trace)) == 1
        clear_caches()
        assert len(tracememo._memo) == 0
        simulate(trace)
        assert len(recordings) == 2

    def test_recording_dies_with_its_trace(self):
        trace = generate_trace("coremark", 1500, 0)
        simulate(trace)
        assert len(tracememo._memo) == 1
        clear_trace_caches()
        del trace
        gc.collect()
        assert len(tracememo._memo) == 0


class TestDeadlines:
    def test_interrupt_fires_during_the_recording_pass(self):
        trace = generate_trace("mcf", 3000, 2)
        # Record the front end (and a cold-L3 hierarchy), so the next
        # run's only recording pass is the warm-L3 hierarchy's.
        simulate(trace, _composite(), config=CoreConfig(warm_l3=False))
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
        assert len(_recordings(trace)) == 1
        assert asdict(simulate(trace, _composite())) == asdict(
            simulate_objects(trace, _composite())
        )
        assert len(_recordings(trace)) == 2


class TestOpenFaults:
    @pytest.mark.xfail(strict=True, reason=(
        "EXPERIMENTS.md D6: a PAQ probe is resolved after its own "
        "load's demand access; fixing it moves timing numbers"
    ))
    def test_no_probe_hits_only_through_its_own_loads_fill(
        self, monkeypatch
    ):
        """A PAQ probe launches at fetch, so it must not see the L1D
        fill its own load's demand miss makes later."""
        replay = recording.HierarchyReplay
        load_latency = replay.load_latency
        probe_l1d = replay.probe_l1d
        seen = {"load_done": -1, "own_fill_hits": 0, "probes": 0}

        def logged_load(self, pc, addr):
            latency = load_latency(self, pc, addr)
            seen["load_done"] = self.ordinal
            return latency

        def logged_probe(self, addr):
            hit, latency = probe_l1d(self, addr)
            seen["probes"] += 1
            if hit and self.ordinal == seen["load_done"]:
                # Resident now, but not before the load's own access.
                bounds = self._residency[addr >> self._offset_bits]
                if bisect_right(bounds, self.ordinal - 1) & 1 == 0:
                    seen["own_fill_hits"] += 1
            return hit, latency

        monkeypatch.setattr(replay, "load_latency", logged_load)
        monkeypatch.setattr(replay, "probe_l1d", logged_probe)
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        CoreModel(predictor=predictor).run(generate_trace("equake", 20_000, 0))
        assert seen["probes"] > 0
        assert seen["own_fill_hits"] == 0
