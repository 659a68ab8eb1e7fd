"""Per-trace CVP/CAP hash columns: kernels, timing lookups, memo lifetimes.

CVP and CAP index their tables from the load PC and its fetch-time
histories alone, so a whole trace's (index, tag) pairs can be hashed at
once.  The timing model memoizes them on the trace's front-end stream
and components look them up by load ordinal; the functional backend
memoizes the same columns per trace.  These tests hold the column
kernels to the scalar hashes, the column-fed timing run to the
object-path oracle, and both memos to their lifetimes.
"""

import gc
from dataclasses import asdict

import numpy as np
import pytest

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness import functional_vec
from repro.harness.runner import clear_caches
from repro.pipeline import frontend
from repro.pipeline.core import CoreModel, SimulationInterrupted
from repro.pipeline.vp import SingleComponentAdapter
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.workloads.generator import clear_trace_caches, generate_trace

from oracles.core_loop import simulate_objects

SIZES = tuple(64 << k for k in range(7))  # 64 .. 4096


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_caches()
    yield
    clear_caches()


def _random_loads(seed, n=400):
    rng = np.random.default_rng(seed)
    pc = rng.integers(0, 1 << 48, n, dtype=np.uint64)
    direction = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    path = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    return pc, direction, path


class TestKernelsMatchScalarHashes:
    @pytest.mark.parametrize("total", SIZES)
    def test_cvp(self, total):
        cvp = CvpPredictor(total)
        pc, direction, path = _random_loads(total)
        columns = cvp.hash_columns(pc, direction, path)
        assert len(columns) == 3
        for table, (index, tag) in enumerate(columns):
            index, tag = index.tolist(), tag.tolist()
            for k, (p, d, h) in enumerate(
                zip(pc.tolist(), direction.tolist(), path.tolist())
            ):
                assert index[k] == cvp._index(p, table, d, h)
                assert tag[k] == cvp._tag(p, table, d)

    @pytest.mark.parametrize("sets", SIZES)
    def test_cap(self, sets):
        cap = CapPredictor(sets)
        pc, _, load_path = _random_loads(sets + 1)
        index, tag = (c.tolist() for c in cap.hash_columns(pc, load_path))
        for k, (p, h) in enumerate(zip(pc.tolist(), load_path.tolist())):
            assert index[k] == cap._index(p, h)
            assert tag[k] == cap._tag(p, h)

    def test_stream_rows_match_the_recorded_histories(self):
        # The stream's direction history is 256 bits wide; the rows are
        # built from its low 64, which must not change any hash.
        trace = generate_trace("gcc2k", 3000, 0)
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        model = CoreModel(predictor=predictor)
        model.run(trace)
        (stream,) = frontend._streams[trace]
        cvp = predictor.components["cvp"]
        cap = predictor.components["cap"]
        cvp_rows = stream.hash_rows(cvp.geometry_key, cvp._hash_rows)
        cap_rows = stream.hash_rows(cap.geometry_key, cap._hash_rows)
        assert len(cvp_rows) == len(cap_rows) == len(stream.pc) > 0
        assert any(d >> 64 for d in stream.direction)
        for k, pc in enumerate(stream.pc):
            direction = stream.direction[k]
            path = stream.path[k]
            load_path = stream.load_path[k]
            assert list(cvp_rows[k]) == [
                (cvp._index(pc, t, direction, path), cvp._tag(pc, t, direction))
                for t in range(3)
            ]
            assert cap_rows[k] == (
                cap._index(pc, load_path), cap._tag(pc, load_path)
            )


def _fused_composite():
    return CompositePredictor(
        CompositeConfig(epoch_instructions=97).homogeneous(64)
    )


def _table_state(predictor):
    return [
        list(table.rows())
        for component in predictor.components.values()
        for table in component._tables()
    ]


class TestTimingRunWithColumns:
    def test_fused_composite_matches_the_object_oracle(self):
        trace = generate_trace("listing1", 3000, 4)
        col_p, obj_p = _fused_composite(), _fused_composite()
        col = CoreModel(predictor=col_p).run(trace)
        obj = simulate_objects(trace, obj_p)
        assert asdict(col) == asdict(obj)
        assert _table_state(col_p) == _table_state(obj_p)
        assert col_p.fusion.state.fusions_performed >= 1
        assert (col_p.fusion.state.fusions_performed
                == obj_p.fusion.state.fusions_performed)

    def test_cells_of_one_geometry_share_the_rows(self, monkeypatch):
        calls = []
        hash_columns = CvpPredictor.hash_columns

        def counted(self, *args):
            calls.append(self.geometry_key)
            return hash_columns(self, *args)

        monkeypatch.setattr(CvpPredictor, "hash_columns", counted)
        trace = generate_trace("mcf", 2000, 0)
        for entries in (256, 256, 1024, 256):
            CoreModel(predictor=SingleComponentAdapter(
                CvpPredictor(entries)
            )).run(trace)
        assert len(calls) == 2

    def _assert_released(self, predictor):
        for component in predictor.components.values():
            assert getattr(component, "_rows", None) is None

    def test_release_after_return(self):
        trace = generate_trace("coremark", 2000, 0)
        predictor = _fused_composite()
        CoreModel(predictor=predictor).run(trace)
        self._assert_released(predictor)

    def test_release_after_interrupt(self):
        trace = generate_trace("coremark", 2000, 0)
        CoreModel(predictor=_fused_composite()).run(trace)  # record
        predictor = _fused_composite()
        seen = []

        def interrupt(done):
            # Fires inside the replay loop: the rows are bound by then.
            seen.append(predictor.components["cvp"]._rows is not None)
            return True

        with pytest.raises(SimulationInterrupted):
            CoreModel(predictor=predictor).run(
                trace, interrupt=interrupt, interrupt_interval=512
            )
        assert seen == [True]
        self._assert_released(predictor)


class TestFunctionalPrecomputeMemo:
    def _sweep(self, traces, rounds=2):
        for _ in range(rounds):
            for trace in traces:
                functional_vec.run_functional_vec(
                    trace, CompositePredictor(
                        CompositeConfig().homogeneous(256)
                    )
                )

    def test_each_trace_is_precomputed_once_across_a_sweep(
        self, monkeypatch
    ):
        batches, hashes = [], []
        precompute = functional_vec.precompute_load_batch
        hash_columns = CvpPredictor.hash_columns
        monkeypatch.setattr(
            functional_vec, "precompute_load_batch",
            lambda *args: batches.append(1) or precompute(*args),
        )
        monkeypatch.setattr(
            CvpPredictor, "hash_columns",
            lambda *args: hashes.append(1) or hash_columns(*args),
        )
        traces = [generate_trace(w, 1500, 0) for w in (
            "coremark", "mcf", "gcc2k", "astar", "linpack", "splay",
        )]
        self._sweep(traces)
        assert len(batches) == len(traces)
        assert len(hashes) == len(traces)

    def test_entries_die_with_their_trace_and_with_clear_caches(self):
        trace = generate_trace("coremark", 1500, 0)
        self._sweep([trace], rounds=1)
        assert len(functional_vec._TRACE_CACHE) == 1
        clear_caches()
        assert len(functional_vec._TRACE_CACHE) == 0
        self._sweep([trace], rounds=1)
        assert len(functional_vec._TRACE_CACHE) == 1
        clear_trace_caches()
        del trace
        gc.collect()
        assert len(functional_vec._TRACE_CACHE) == 0
