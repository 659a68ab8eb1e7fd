"""Per-trace hash columns: kernels, timing lookups, memo lifetimes.

Every component indexes its tables from the load PC and its fetch-time
raw histories alone, so a whole trace's (index, tag) pairs can be
hashed at once.  One per-trace derivation
(:mod:`repro.predictors.hash_columns`) serves both the composite's
bound step in a timing run, which looks them up by load ordinal, and
the functional backend.  These tests hold the column kernels to each
component's scalar reference, the column-fed timing run to the
object-path oracle, and the per-trace memo to its lifetimes.
"""

import gc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import alone, memo_entries
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.history import load_histories
from repro.common import tracememo
from repro.common.bits import FOLD_PLANS, fold_bits
from repro.common.hashing import mix64
from repro.composite.accuracy_monitor import PcAm, _pc_am_index, _pc_am_tag
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness import functional_vec
from repro.harness.presets import SMOKE
from repro.harness.runner import clear_caches
from repro.pipeline.core import CoreModel, SimulationInterrupted
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import HISTORY_LENGTHS, CvpPredictor
from repro.predictors.hash_columns import trace_hash_columns
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
        columns = [(index.tolist(), tag.tolist()) for index, tag in columns]
        for k, (p, d, h) in enumerate(
            zip(pc.tolist(), direction.tolist(), path.tolist())
        ):
            assert cvp._hashes(p, d, h) == [
                (index[k], tag[k]) for index, tag in columns
            ]

    @pytest.mark.parametrize("sets", SIZES)
    def test_cap(self, sets):
        cap = CapPredictor(sets)
        pc, _, load_path = _random_loads(sets + 1)
        index, tag = (c.tolist() for c in cap.hash_columns(pc, load_path))
        for k, (p, h) in enumerate(zip(pc.tolist(), load_path.tolist())):
            assert cap._hashes(p, h) == (index[k], tag[k])

    def test_pc_am_on_the_smoke_traces(self):
        # The finite PC-AM's columns, which the functional backend
        # reads, against its scalar hashes on every load.
        for workload in SMOKE.workloads:
            trace = generate_trace(workload, SMOKE.trace_length, SMOKE.seed)
            pcs = load_histories(trace).pc.tolist()
            for entries in (64, 1024):
                ((index, tag),) = trace_hash_columns(trace, PcAm(entries))
                assert list(index) == [
                    _pc_am_index(pc, entries) for pc in pcs
                ]
                assert list(tag) == [_pc_am_tag(pc) for pc in pcs]

    def test_trace_rows_match_the_recorded_histories(self):
        # The probes' direction history is 256 bits wide; the columns
        # are built from its low 64, which must not change any hash: no
        # table reads further back than that.
        trace = generate_trace("gcc2k", 3000, 0)
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        model = CoreModel(predictor=predictor)
        model.run(trace)
        components = predictor.components
        columns = memo_entries(trace, "hash columns")
        assert set(columns) == {
            component.geometry_key for component in components.values()
        }
        assert max(HISTORY_LENGTHS) <= 64
        histories = load_histories(trace)
        pcs = histories.pc.tolist()
        directions, paths, load_paths = histories.snapshots()
        assert len(pcs) > 0
        assert any(d >> 64 for d in directions)
        lvp, cvp, cap = (components[name] for name in ("lvp", "cvp", "cap"))
        for geometry, expected in (
            (lvp, lambda k: [lvp._hashes(pcs[k])]),
            (cvp, lambda k: cvp._hashes(pcs[k], directions[k], paths[k])),
            (cap, lambda k: [cap._hashes(pcs[k], load_paths[k])]),
        ):
            tables = columns[geometry.geometry_key]
            assert all(len(column) == len(pcs) for pair in tables
                       for column in pair)
            for k in range(len(pcs)):
                assert [(index[k], tag[k]) for index, tag in tables] == (
                    expected(k)
                )


class TestScalarHashesFoldExactly:
    """The scalar references fold by halving; they must equal a plain
    chunk-by-chunk :func:`~repro.common.bits.fold_bits` of the same
    terms for every non-negative input, however wide (a serve client
    may send any PC)."""

    @settings(max_examples=300, deadline=None)
    @given(
        total=st.sampled_from((8, 16, 64, 256, 4096, 1 << 16)),
        pc=st.one_of(st.integers(0, 1 << 48), st.integers(0, 1 << 300)),
        direction=st.integers(0, 1 << 256),
        path=st.one_of(st.integers(0, 1 << 32), st.integers(0, 1 << 200)),
    )
    def test_cvp(self, total, pc, direction, path):
        cvp = CvpPredictor(total)
        expected = []
        for bits, _, hmask, isalt, tsalt in cvp._hash_consts:
            history = direction & hmask
            expected.append((
                fold_bits(
                    (pc >> 2) ^ (pc >> (2 + bits)) ^ history ^ path ^ isalt,
                    bits,
                ),
                fold_bits(
                    (pc >> 2) ^ ((history ^ tsalt) * 0x9E3779B97F4A7C15
                                 & (1 << 64) - 1),
                    14,
                ),
            ))
        assert cvp._hashes(pc, direction, path) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        sets=st.sampled_from((2, 4, 64, 1024, 1 << 16)),
        pc=st.one_of(st.integers(0, 1 << 48), st.integers(0, 1 << 300)),
        load_path=st.one_of(st.integers(0, 1 << 64), st.integers(0, 1 << 200)),
    )
    def test_cap(self, sets, pc, load_path):
        cap = CapPredictor(sets)
        bits = cap._index_bits
        assert cap._hashes(pc, load_path) == (
            fold_bits((pc >> 2) ^ (pc >> (2 + bits)) ^ load_path, bits),
            fold_bits((pc >> 2) ^ mix64(load_path + 0x9E37), 14),
        )

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 64), value=st.integers(0, 1 << 300))
    def test_fold_plan(self, width, value):
        span, span_mask, m1, s1, m2, s2, m3, s3 = FOLD_PLANS[width]
        v = value
        while v >> span:
            v = (v & span_mask) ^ (v >> span)
        v = (v & m1) ^ (v >> s1)
        v = (v & m2) ^ (v >> s2)
        v = (v & m3) ^ (v >> s3)
        if width >= 8 and value >> 64 == 0:
            assert v >> width == 0  # no chunk-by-chunk turn left
        while v >> width:
            v = (v & ((1 << width) - 1)) ^ (v >> width)
        assert v == fold_bits(value, width)


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
            CoreModel(predictor=alone("cvp", entries)).run(trace)
        assert len(calls) == 2

    def _assert_released(self, predictor):
        assert predictor._trace is None
        assert "_predict_step" not in vars(predictor)

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
            # Fires inside the replay loop: the step is bound to the
            # trace's columns by then.
            seen.append(predictor._trace is trace and "bind_step" in (
                vars(predictor)["_predict_step"].__qualname__
            ))
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

    def test_a_pc_am_run_memoizes_no_pc_list(self):
        """Only PC-AM-infinite reads the loads' PCs as ints, and it
        takes them per run; a stock (PC-AM 64) run keeps none."""
        trace = generate_trace("coremark", 1500, 0)
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        assert predictor.config.accuracy_monitor == "pc-am"
        functional_vec.run_functional_vec(trace, predictor)
        pcs = load_histories(trace).pc.tolist()
        held = []
        for value in tracememo._memo[trace].values():
            if isinstance(value, functional_vec._LoadBatch):
                assert not hasattr(functional_vec._LoadBatch, "pc")
                held += [getattr(value, slot) for slot in value.__slots__]
            else:
                held.append(value)
        assert held and all(
            not (isinstance(item, list) and item == pcs) for item in held
        )

    def test_entries_die_with_their_trace_and_with_clear_caches(self):
        trace = generate_trace("coremark", 1500, 0)
        self._sweep([trace], rounds=1)
        assert len(tracememo._memo) == 1
        assert memo_entries(trace, "functional")
        clear_caches()
        assert len(tracememo._memo) == 0
        self._sweep([trace], rounds=1)
        assert len(tracememo._memo) == 1
        clear_trace_caches()
        del trace
        gc.collect()
        assert len(tracememo._memo) == 0
