"""Randomized bit-exact equivalence: columnar loop vs object oracle.

:meth:`repro.pipeline.core.CoreModel.run` runs the per-instruction pass
over packed arrays and replays a recorded front end.  These tests are
the contract that keeps it honest: for randomized workloads, seeds,
and predictor assemblies, the full :class:`SimResult` -- every counter,
the cycle count, and the nested ``extra`` diagnostics -- must be
*identical* to the object-path oracle's (``tests/oracles/core_loop.py``).

The same contract covers the *functional* path: the vectorized batch
backend (:mod:`repro.harness.functional_vec`) must produce a
:class:`FunctionalResult` identical to the object interpreter's
(``tests/oracles/functional_loop.py``), with identical final table
state, across workloads x seeds x composite specs -- plus the edge
traces (no loads, nothing predictable, one instruction) that stress the
accuracy-of-nothing reporting.
"""

from dataclasses import asdict

import pytest
from conftest import alone, memo_entries

from repro.composite.accuracy_monitor import InfinitePcAm, MAm, PcAm
from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.functional import run_functional
from repro.harness.presets import SMOKE
from repro.harness.functional_vec import (
    run_functional_vec,
    vector_unsupported_reason,
)
from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory import recording
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import CoreModel, simulate
from repro.workloads.generator import clear_trace_caches, generate_trace

from oracles import core_loop
from oracles.core_loop import run_objects, simulate_objects
from oracles.functional_loop import run_functional_objects
from test_fuzz_equivalence import STEP_SPECS, _host


@pytest.fixture(autouse=True)
def _no_store(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_trace_caches()
    yield
    clear_trace_caches()


def run_both(trace, make_predictor, config=None, seed=0):
    """One trace through both loops with independently built state."""
    obj = run_objects(CoreModel(
        config=config, predictor=make_predictor(), seed=seed
    ), trace)
    col = CoreModel(
        config=config, predictor=make_predictor(), seed=seed
    ).run(trace)
    return asdict(obj), asdict(col)


def assert_bit_identical(trace, make_predictor, config=None, seed=0):
    obj, col = run_both(trace, make_predictor, config, seed)
    diff = {k: (obj[k], col[k]) for k in obj if obj[k] != col[k]}
    assert not diff, f"columnar/object divergence on {trace.name}: {diff}"


WORKLOADS = ("astar", "mcf", "coremark", "listing1")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_baseline(self, workload, seed):
        trace = generate_trace(workload, 3000, seed)
        assert_bit_identical(trace, lambda: None, seed=seed)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 7))
    def test_composite(self, workload, seed):
        trace = generate_trace(workload, 3000, seed)
        assert_bit_identical(
            trace,
            lambda: CompositePredictor(CompositeConfig().homogeneous(128)),
            seed=seed,
        )

    @pytest.mark.parametrize("workload", ("astar", "listing1"))
    def test_eves(self, workload):
        trace = generate_trace(workload, 3000, 1)
        assert_bit_identical(trace, eves_8kb, seed=1)

    @pytest.mark.parametrize("component", ("lvp", "sap", "cvp", "cap"))
    def test_single_components(self, component):
        trace = generate_trace("mcf", 2500, 2)
        assert_bit_identical(
            trace,
            lambda: alone(component, 128),
            seed=2,
        )

    def test_no_memory_dependence_config(self):
        trace = generate_trace("astar", 2500, 4)
        config = CoreConfig(memory_dependence="perfect")
        assert_bit_identical(
            trace,
            lambda: CompositePredictor(CompositeConfig().homogeneous(64)),
            config=config,
            seed=4,
        )

    def test_cold_l3_config(self):
        trace = generate_trace("mcf", 2500, 6)
        config = CoreConfig(warm_l3=False)
        assert_bit_identical(trace, lambda: None, config=config, seed=6)


#: Windows small enough that the columnar loop's ring buffers wrap on
#: nearly every instruction, load and store (the default 224/97/72/56
#: windows barely wrap on short traces), with one load/store lane.
TINY_WINDOWS = CoreConfig(
    rob_entries=8, iq_entries=5, ldq_entries=3, stq_entries=2,
    ls_lanes=1, generic_lanes=2,
)


class TestTinyWindows:
    @pytest.mark.parametrize("workload", ("coremark", "mcf", "gcc2k"))
    @pytest.mark.parametrize("make_predictor", (
        lambda: None,
        lambda: CompositePredictor(CompositeConfig().homogeneous(128).plain()),
    ), ids=("no-vp", "plain-composite"))
    def test_matches_oracle(self, workload, make_predictor):
        trace = generate_trace(workload, 5000, 0)
        obj, col = run_both(trace, make_predictor, TINY_WINDOWS)
        assert col == obj
        # The tiny windows bind: the run is slower than on the default.
        assert col["cycles"] > simulate(trace, make_predictor()).cycles


def _composite128():
    return CompositePredictor(CompositeConfig().homogeneous(128))


#: Assemblies whose fold-slot layouts relate in every way that matters:
#: the baseline's is a prefix of all the others, CVP's of the
#: composite's, and EVES's is a prefix of none (nor they of it).
ASSEMBLIES = {
    "baseline": lambda: None,
    "composite": _composite128,
    "cvp": lambda: alone("cvp", 128),
    "eves": eves_8kb,
}


class TestFrontEndReplayOrder:
    """The columnar loop replays a front end recorded once per trace;
    which assembly ran first on the trace must not matter."""

    @pytest.mark.parametrize("order", (
        ("baseline", "composite", "cvp", "eves"),
        ("composite", "baseline", "eves", "cvp"),
        ("eves", "composite", "eves", "baseline", "cvp"),
        ("cvp", "eves", "composite", "baseline"),
    ))
    def test_any_order_matches_fresh_object_runs(self, order):
        trace = generate_trace("astar", 2500, 5)
        oracle = {
            name: asdict(run_objects(CoreModel(
                predictor=ASSEMBLIES[name](), seed=5
            ), trace))
            for name in set(order)
        }
        for name in order:
            replayed = asdict(CoreModel(
                predictor=ASSEMBLIES[name](), seed=5
            ).run(trace))
            diff = {
                k: (oracle[name][k], replayed[k])
                for k in replayed if replayed[k] != oracle[name][k]
            }
            assert not diff, f"{name} after {order}: {diff}"
            assert replayed["extra"]["branch"] == (
                oracle[name]["extra"]["branch"]
            )


def _address_first():
    """A composite that prefers address predictions: PAQ-probe heavy."""
    return CompositePredictor(
        CompositeConfig(prefer_value_predictions=False).homogeneous(128)
    )


class TestHierarchyReplay:
    """The columnar loop replays a memory hierarchy recorded once per
    trace; the oracle drives a live one on every block change."""

    def test_probe_hits_and_misses(self):
        trace = generate_trace("calculix", 4000, 0)
        obj, col = run_both(trace, _address_first)
        assert col == obj
        assert col["paq_probes"] > col["dropped_probe_misses"] > 0

    def test_flushes_refetch_the_same_block(self):
        # Store-set violations and value mispredictions both flush; a
        # refetch of the block in flight is served without a recorded
        # call and counted into the L1I statistics by the loop.
        trace = generate_trace("mp4enc", 8000, 0)
        obj, col = run_both(trace, _address_first)
        assert col == obj
        assert col["memory_order_violations"] > 0
        assert col["value_mispredictions"] > 0
        recorded = recording.hierarchy_recording(
            trace, CoreConfig().hierarchy, True
        ).counters["caches"]["l1i"].accesses
        assert col["extra"]["caches"]["l1i"]["accesses"] > recorded

    def test_prefetch_on_probe_miss_drives_a_live_hierarchy(self):
        trace = generate_trace("vpr", 4000, 0)
        config = CoreConfig(paq_prefetch_on_miss=True)
        obj, col = run_both(trace, _address_first, config)
        assert col == obj
        assert memo_entries(trace, "hierarchy") == {}
        assert col["dropped_probe_misses"] > 0
        # A probe miss fills its block, so later probes of it hit: the
        # predictions changed the cache.
        default = simulate(trace, _address_first())
        assert col["dropped_probe_misses"] < default.dropped_probe_misses

    def test_one_recording_per_hierarchy_key(self):
        trace = generate_trace("mcf", 3000, 1)
        configs = (
            CoreConfig(),
            CoreConfig(hierarchy=HierarchyConfig(memory_latency=800)),
            CoreConfig(hierarchy=HierarchyConfig(prefetch_enabled=False)),
            CoreConfig(warm_l3=False),
        )
        for config in configs:
            assert_bit_identical(trace, _composite128, config, seed=1)
        recordings = memo_entries(trace, "hierarchy")
        assert set(recordings) == {
            (config.hierarchy, config.warm_l3) for config in configs
        }
        assert len({
            (tuple(r.latencies), repr(r.counters))
            for r in recordings.values()
        }) == 4

    @pytest.mark.parametrize("block_bytes", (32, 128))
    def test_fetch_block_is_the_l1i_block(self, block_bytes):
        # The same-block refetch rule holds for any L1I geometry because
        # the fetch block is the L1I block.
        l1i = CacheConfig("L1I", 64 * 1024, 4, block_bytes, 1)
        config = CoreConfig(hierarchy=HierarchyConfig(l1i=l1i))
        trace = generate_trace("listing1", 3000, 2)
        obj, col = run_both(trace, lambda: alone("sap", 128), config, seed=2)
        assert col == obj
        assert col["value_mispredictions"] > 0
        recorded = recording.hierarchy_recording(
            trace, config.hierarchy, True
        ).counters["caches"]["l1i"].accesses
        assert col["extra"]["caches"]["l1i"]["accesses"] > recorded


class TestDispatch:
    def test_packed_trace_defaults_to_columnar(self):
        trace = generate_trace("astar", 1500, 0)
        assert trace.columns is not None
        default = simulate(trace, seed=0)
        oracle = simulate_objects(trace, seed=0)
        assert asdict(default) == asdict(oracle)

    def test_unpacked_trace_uses_object_path(self):
        # An object-built trace is packed on demand and gives the
        # same result as the generator's packed trace.
        from repro.isa.trace import Trace

        packed = generate_trace("astar", 1500, 0)
        unpacked = Trace(
            name=packed.name,
            instructions=list(packed.instructions),
            seed=packed.seed,
            metadata=dict(packed.metadata),
            initial_memory=packed.initial_memory,
        )
        assert unpacked.columns is None
        assert asdict(simulate(unpacked)) == asdict(simulate(packed))
        assert unpacked.columns is not None

    def test_interrupt_hook_fires_on_columnar_path(self):
        from repro.pipeline.core import SimulationInterrupted

        trace = generate_trace("astar", 1500, 0)
        calls = []
        with pytest.raises(SimulationInterrupted):
            simulate(
                trace,
                interrupt=lambda done: calls.append(done) or len(calls) > 1,
                interrupt_interval=256,
            )
        assert calls == [256, 512]


class TestTickHandOff:
    """The loop ticks the predictor's epoch clock at a run's start, at
    the first load at or past each epoch end, and at the run's end; the
    oracle ticks every instruction and still agrees bit for bit."""

    @pytest.mark.parametrize("spec", STEP_SPECS,
                             ids=[str(i) for i in range(len(STEP_SPECS))])
    def test_ticks_only_at_epoch_ends(self, spec):
        trace = generate_trace("coremark", 3000, 0)
        host = _host(spec)
        tick = host.tick_instructions
        counts = []
        host.tick_instructions = (
            lambda count: counts.append(count) or tick(count)
        )
        result = simulate(trace, host)
        epoch = spec["config"]["epoch_instructions"]
        assert sum(counts) == len(trace)
        assert len(counts) <= len(trace) // epoch + 2
        reference = _host(spec)
        assert asdict(result) == asdict(simulate_objects(trace, reference))
        assert asdict(host.stats) == asdict(reference.stats)
        assert _monitor_state(host.monitor) == _monitor_state(
            reference.monitor
        )
        assert host._instructions_in_epoch == len(trace) % epoch

    @pytest.mark.parametrize("make_predictor", (lambda: None, eves_8kb),
                             ids=("no-vp", "eves"))
    def test_hosts_without_epochs_tick_at_start_and_end(
        self, make_predictor
    ):
        model = CoreModel(predictor=make_predictor())
        tick = model.predictor.tick_instructions
        counts = []
        model.predictor.tick_instructions = (
            lambda count: counts.append(count) or tick(count)
        )
        trace = generate_trace("mcf", 2000, 0)
        model.run(trace)
        assert counts == [0, len(trace)]


class TestOpenFaults:
    @pytest.mark.xfail(strict=True, reason=(
        "EXPERIMENTS.md D8: the in-flight count drops finished older "
        "instances only from the front; fixing it moves timing numbers"
    ))
    def test_inflight_count_excludes_finished_instances(self, monkeypatch):
        """A probe's in-flight count is the older instances of its PC
        that have not completed by its fetch."""
        count = core_loop.inflight_count
        seen = {"queued": 0, "miscounted": 0}

        def checked(flights, fetch):
            if flights:
                seen["queued"] += 1
                exact = sum(1 for done in flights if done > fetch)
                inflight = count(flights, fetch)
                seen["miscounted"] += inflight != exact
                return inflight
            return count(flights, fetch)

        monkeypatch.setattr(core_loop, "inflight_count", checked)
        config = CompositeConfig().homogeneous(256).plain()
        for workload in SMOKE.workloads:
            simulate_objects(generate_trace(workload, 5000, 0),
                             CompositePredictor(config))
        assert seen["queued"] > 0
        assert seen["miscounted"] == 0


# ----------------------------------------------------------------------
# Functional path: vectorized batch backend vs the object oracle
# ----------------------------------------------------------------------

def functional_both(trace, make_predictor):
    """Run both functional backends with independently built predictors."""
    obj_predictor = make_predictor()
    vec_predictor = make_predictor()
    obj = run_functional_objects(trace, obj_predictor)
    vec = run_functional_vec(trace, vec_predictor)
    return (asdict(obj), obj_predictor), (asdict(vec), vec_predictor)


def _table_state(predictor):
    """Every entry of every table, as plain tuples."""
    return [
        list(table.rows())
        for component in predictor.components.values()
        for table in component._tables()
    ]


def _monitor_state(monitor):
    """The accuracy monitor's counters, as plain values."""
    def entry(e):
        return None if e is None else (e.tag, e.correct, e.incorrect)

    if isinstance(monitor, MAm):
        return (monitor._predictions, monitor._mispredictions,
                monitor._silenced)
    if isinstance(monitor, InfinitePcAm):
        return {pc: entry(e) for pc, e in monitor._map.items()}
    if isinstance(monitor, PcAm):
        return [entry(e) for e in monitor._table]
    return None


def _fpc_positions(predictor):
    """How many coins each component's FPC stream has drawn."""
    return {
        name: component._rng.drawn
        for name, component in predictor.components.items()
    }


def assert_functional_identical(trace, make_predictor):
    (obj, obj_p), (vec, vec_p) = functional_both(trace, make_predictor)
    diff = {k: (obj[k], vec[k]) for k in obj if obj[k] != vec[k]}
    assert not diff, f"vector/object divergence on {trace.name}: {diff}"
    assert _table_state(obj_p) == _table_state(vec_p)
    assert (getattr(obj_p, "_instructions_in_epoch", None)
            == getattr(vec_p, "_instructions_in_epoch", None))
    assert asdict(obj_p.stats) == asdict(vec_p.stats)
    assert _monitor_state(obj_p.monitor) == _monitor_state(vec_p.monitor)
    assert _fpc_positions(obj_p) == _fpc_positions(vec_p)
    return obj_p, vec_p


def _composite(**overrides):
    config = CompositeConfig(**overrides).homogeneous(128)
    return lambda: CompositePredictor(config)


class TestFunctionalVecEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 5))
    def test_composite_default(self, workload, seed):
        trace = generate_trace(workload, 3000, seed)
        assert_functional_identical(trace, _composite())

    @pytest.mark.parametrize(
        "monitor", ("none", "m-am", "pc-am", "pc-am-infinite")
    )
    def test_accuracy_monitors(self, monitor):
        trace = generate_trace("mcf", 3000, 1)
        assert_functional_identical(
            trace, _composite(accuracy_monitor=monitor)
        )

    def test_plain_composite(self):
        trace = generate_trace("astar", 3000, 2)
        config = CompositeConfig().plain().homogeneous(128)
        assert_functional_identical(
            trace, lambda: CompositePredictor(config)
        )

    def test_smart_training_off(self):
        trace = generate_trace("coremark", 3000, 3)
        assert_functional_identical(trace, _composite(smart_training=False))

    def test_fusion_with_tiny_epochs(self):
        # Epochs short enough that fusion observes, fires, and can
        # revert inside a 3000-instruction trace; the vec run must
        # fuse identically, not merely end with equal counters.
        trace = generate_trace("listing1", 3000, 4)
        make = _composite(epoch_instructions=97)
        (obj, obj_p), (vec, vec_p) = functional_both(trace, make)
        assert obj == vec
        assert _table_state(obj_p) == _table_state(vec_p)
        assert (obj_p.fusion.state.fusions_performed
                == vec_p.fusion.state.fusions_performed)
        assert vec_p.fusion.state.fusions_performed >= 1

    def test_heterogeneous_sizes(self):
        trace = generate_trace("mcf", 3000, 6)
        config = CompositeConfig(
            lvp_entries=64, sap_entries=256, cvp_entries=512,
            cap_entries=128, table_fusion=False,
        )
        assert_functional_identical(
            trace, lambda: CompositePredictor(config)
        )

    def test_zero_entry_allocation_shifts_slots(self):
        # SAP left out: CVP and CAP move down a slot, so every mask the
        # vec loop builds must follow the predictor's slot_names.  The
        # lowered confidence bar makes used mispredictions, so PC-AM
        # entries are allocated, updated and consulted.
        trace = generate_trace("zlib", 3000, 9)
        config = CompositeConfig(
            lvp_entries=64, sap_entries=0, cvp_entries=256,
            cap_entries=128, table_fusion=False,
            accuracy_monitor="pc-am", smart_training=True,
            confidence_delta=-3,
        )
        obj_p, vec_p = assert_functional_identical(
            trace, lambda: CompositePredictor(config)
        )
        assert vec_p.slot_names == ("lvp", "cvp", "cap")
        assert any(e is not None for e in vec_p.monitor._table)
        assert vec_p.stats.incorrect_used > 0
        assert vec_p.stats.confident_histogram[2] > 0

    def test_m_am_silencing_flips_mid_trace(self):
        # Epochs short enough that M-AM silences a component and lets
        # it back in several times inside the trace.
        trace = generate_trace("listing1", 3000, 1)
        config = CompositeConfig(
            accuracy_monitor="m-am", table_fusion=False,
            epoch_instructions=150,
        ).homogeneous(128)
        masks = {}

        def make():
            predictor = CompositePredictor(config)
            monitor = predictor.monitor
            seen = masks.setdefault(id(predictor), [])
            end_epoch = monitor.end_epoch

            def recording_end_epoch():
                end_epoch()
                seen.append(monitor._silenced)

            monitor.end_epoch = recording_end_epoch
            return predictor

        obj_p, vec_p = assert_functional_identical(trace, make)
        obj_masks, vec_masks = masks[id(obj_p)], masks[id(vec_p)]
        assert obj_masks == vec_masks
        flips = sum(a != b for a, b in zip(vec_masks, vec_masks[1:]))
        assert flips >= 2 and any(vec_masks)

    def test_confidence_delta(self):
        trace = generate_trace("astar", 3000, 7)
        assert_functional_identical(trace, _composite(confidence_delta=1))

    @pytest.mark.parametrize("component", ("lvp", "sap", "cvp", "cap"))
    def test_single_components(self, component):
        # A lone component is a one-component plain composite.
        trace = generate_trace("coremark", 2500, 8)
        assert_functional_identical(trace, lambda: alone(component, 128))


def _packed(name, instructions):
    trace = Trace(name=name, instructions=instructions)
    trace.pack()
    return trace


def _alu(i):
    return Instruction(pc=4 * (i + 1), op=OpClass.INT_ALU)


class TestFunctionalVecEdgeTraces:
    """Degenerate traces, which also pin the accuracy-of-nothing fix:
    zero predictions must report accuracy 0.0, never a vacuous 1.0."""

    def _assert_nothing_predicted(self, trace):
        (obj, _), (vec, _) = functional_both(trace, _composite())
        assert obj == vec
        for result in (obj, vec):
            assert result["predicted_loads"] == 0
        functional = run_functional_vec(
            trace,
            CompositePredictor(CompositeConfig().homogeneous(128)),
        )
        assert functional.accuracy == 0.0
        assert functional.coverage == 0.0

    def test_zero_loads(self):
        instructions = [_alu(i) for i in range(8)] + [
            Instruction(pc=64, op=OpClass.BRANCH_COND, taken=True),
            Instruction(pc=68, op=OpClass.BRANCH_DIRECT),
        ]
        trace = _packed("no-loads", instructions)
        self._assert_nothing_predicted(trace)

    def test_all_unpredictable_loads(self):
        instructions = [
            Instruction(
                pc=4 * (i + 1), op=OpClass.LOAD, dest=1, addr=8 * i,
                size=8, value=i, no_predict=True,
            )
            for i in range(16)
        ]
        trace = _packed("unpredictable", instructions)
        self._assert_nothing_predicted(trace)

    def test_single_instruction(self):
        self._assert_nothing_predicted(_packed("one-alu", [_alu(0)]))

    def test_single_cold_load(self):
        # One predictable load: probed, trained, but never confident --
        # predicted_loads stays 0 and accuracy must read 0.0.
        trace = _packed("one-load", [
            Instruction(
                pc=4, op=OpClass.LOAD, dest=2, addr=16, size=8, value=7
            ),
        ])
        (obj, _), (vec, _) = functional_both(trace, _composite())
        assert obj == vec
        assert obj["loads"] == 1
        self._assert_nothing_predicted(trace)


class TestFunctionalBackendDispatch:
    def test_vector_rejects_unsupported_predictor(self):
        trace = generate_trace("astar", 1500, 0)
        eves = eves_8kb()
        assert vector_unsupported_reason(trace, eves) is not None
        with pytest.raises(ValueError, match="unsupported predictor type"):
            run_functional_vec(trace, eves)

    @pytest.mark.parametrize("make_host, reason", (
        (eves_8kb, "unsupported predictor type"),
        (lambda: alone("lap", 128), "unsupported component 'lap'"),
        (lambda: CompositePredictor(CompositeConfig(
            table_fusion=False, extra_components=(("lap", 128),),
        ).homogeneous(128)), "unsupported component 'lap'"),
    ), ids=("eves", "single-component", "lap-extra"))
    def test_run_functional_rejects_unsupported_hosts(self, make_host, reason):
        trace = generate_trace("astar", 1500, 0)
        with pytest.raises(ValueError, match=reason):
            run_functional(trace, make_host())

    def test_vector_rejects_unpacked_trace(self):
        packed = generate_trace("astar", 1500, 0)
        unpacked = Trace(
            name=packed.name,
            instructions=list(packed.instructions),
            seed=packed.seed,
            initial_memory=packed.initial_memory,
        )
        assert unpacked.columns is None
        with pytest.raises(ValueError, match="no packed columns"):
            run_functional_vec(
                unpacked,
                CompositePredictor(CompositeConfig().homogeneous(64)),
            )

    def test_supported_composite_reports_no_reason(self):
        trace = generate_trace("astar", 1500, 0)
        predictor = CompositePredictor(CompositeConfig().homogeneous(64))
        assert vector_unsupported_reason(trace, predictor) is None
