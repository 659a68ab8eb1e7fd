"""Randomized bit-exact equivalence: columnar loop vs object oracle.

The columnar fast path in :meth:`repro.pipeline.core.CoreModel.run`
re-implements the per-instruction pass over packed arrays.  These tests
are the contract that keeps it honest: for randomized workloads, seeds,
and predictor assemblies, the full :class:`SimResult` -- every counter,
the cycle count, and the nested ``extra`` diagnostics -- must be
*identical* between ``columnar=True`` and ``columnar=False``.

The same contract covers the *functional* path: the vectorized batch
backend (:mod:`repro.harness.functional_vec`) must produce a
:class:`FunctionalResult` identical to the object interpreter's, with
identical final table state, across workloads x seeds x predictor
specs -- plus the edge traces (no loads, nothing predictable, one
instruction) that stress the accuracy-of-nothing reporting.
"""

import dataclasses
from dataclasses import asdict

import pytest

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.eves.eves import eves_8kb
from repro.harness.functional import run_functional
from repro.harness.functional_vec import vector_unsupported_reason
from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import CoreModel, simulate
from repro.pipeline.vp import EvesAdapter, SingleComponentAdapter
from repro.predictors import make_component
from repro.workloads.generator import clear_trace_caches, generate_trace


@pytest.fixture(autouse=True)
def _no_store(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    clear_trace_caches()
    yield
    clear_trace_caches()


def run_both(trace, make_predictor, config=None, seed=0):
    """One trace through both loops with independently built state."""
    obj = CoreModel(
        config=config, predictor=make_predictor(), seed=seed
    ).run(trace, columnar=False)
    col = CoreModel(
        config=config, predictor=make_predictor(), seed=seed
    ).run(trace, columnar=True)
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
        assert_bit_identical(trace, lambda: EvesAdapter(eves_8kb()), seed=1)

    @pytest.mark.parametrize("component", ("lvp", "sap", "cvp", "cap"))
    def test_single_components(self, component):
        trace = generate_trace("mcf", 2500, 2)
        assert_bit_identical(
            trace,
            lambda: SingleComponentAdapter(make_component(component, 128)),
            seed=2,
        )

    def test_no_memory_dependence_config(self):
        trace = generate_trace("astar", 2500, 4)
        config = CoreConfig(memory_dependence="oracle")
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


def _composite128():
    return CompositePredictor(CompositeConfig().homogeneous(128))


#: Assemblies whose fold-slot layouts relate in every way that matters:
#: the baseline's is a prefix of all the others, CVP's of the
#: composite's, and EVES's is a prefix of none (nor they of it).
ASSEMBLIES = {
    "baseline": lambda: None,
    "composite": _composite128,
    "cvp": lambda: SingleComponentAdapter(make_component("cvp", 128)),
    "eves": lambda: EvesAdapter(eves_8kb()),
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
            name: asdict(CoreModel(
                predictor=ASSEMBLIES[name](), seed=5
            ).run(trace, columnar=False))
            for name in set(order)
        }
        for name in order:
            replayed = asdict(CoreModel(
                predictor=ASSEMBLIES[name](), seed=5
            ).run(trace, columnar=True))
            diff = {
                k: (oracle[name][k], replayed[k])
                for k in replayed if replayed[k] != oracle[name][k]
            }
            assert not diff, f"{name} after {order}: {diff}"
            assert replayed["extra"]["branch"] == (
                oracle[name]["extra"]["branch"]
            )


class TestDispatch:
    def test_packed_trace_defaults_to_columnar(self):
        trace = generate_trace("astar", 1500, 0)
        assert trace.columns is not None
        default = simulate(trace, seed=0)
        forced = simulate(trace, seed=0, columnar=True)
        assert asdict(default) == asdict(forced)

    def test_unpacked_trace_uses_object_path(self):
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

    def test_forcing_columnar_without_columns_raises(self):
        from repro.isa.trace import Trace

        packed = generate_trace("astar", 1500, 0)
        unpacked = Trace(
            name=packed.name,
            instructions=list(packed.instructions),
            seed=packed.seed,
            initial_memory=packed.initial_memory,
        )
        with pytest.raises(ValueError, match="no packed columns"):
            simulate(unpacked, columnar=True)

    def test_interrupt_hook_fires_on_columnar_path(self):
        from repro.pipeline.core import SimulationInterrupted

        trace = generate_trace("astar", 1500, 0)
        calls = []
        with pytest.raises(SimulationInterrupted):
            simulate(
                trace,
                interrupt=lambda done: calls.append(done) or len(calls) > 1,
                interrupt_interval=256,
                columnar=True,
            )
        assert calls == [256, 512]


# ----------------------------------------------------------------------
# Functional path: vectorized batch backend vs the object oracle
# ----------------------------------------------------------------------

def functional_both(trace, make_predictor, tick_epochs=True):
    """Run both functional backends with independently built predictors."""
    obj_predictor = make_predictor()
    vec_predictor = make_predictor()
    obj = run_functional(
        trace, obj_predictor, tick_epochs, backend="object"
    )
    vec = run_functional(
        trace, vec_predictor, tick_epochs, backend="vector"
    )
    return (asdict(obj), obj_predictor), (asdict(vec), vec_predictor)


def _table_state(predictor):
    """Every entry of every table, as plain tuples."""
    if isinstance(predictor, SingleComponentAdapter):
        components = [predictor.component]
    else:
        components = list(predictor.components.values())
    return [
        [dataclasses.astuple(entry) for entry in table.entries()]
        for component in components
        for table in component._tables()
    ]


def assert_functional_identical(trace, make_predictor, tick_epochs=True):
    (obj, obj_p), (vec, vec_p) = functional_both(
        trace, make_predictor, tick_epochs
    )
    diff = {k: (obj[k], vec[k]) for k in obj if obj[k] != vec[k]}
    assert not diff, f"vector/object divergence on {trace.name}: {diff}"
    assert _table_state(obj_p) == _table_state(vec_p)
    assert (getattr(obj_p, "_instructions_in_epoch", None)
            == getattr(vec_p, "_instructions_in_epoch", None))


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

    def test_confidence_delta(self):
        trace = generate_trace("astar", 3000, 7)
        assert_functional_identical(trace, _composite(confidence_delta=1))

    @pytest.mark.parametrize("component", ("lvp", "sap", "cvp", "cap"))
    def test_single_components(self, component):
        trace = generate_trace("coremark", 2500, 8)
        assert_functional_identical(
            trace,
            lambda: SingleComponentAdapter(make_component(component, 128)),
        )

    def test_tick_epochs_false(self):
        trace = generate_trace("mcf", 3000, 9)
        assert_functional_identical(trace, _composite(), tick_epochs=False)


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
        functional = run_functional(
            trace,
            CompositePredictor(CompositeConfig().homogeneous(128)),
            backend="vector",
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
    def test_unknown_backend_rejected(self):
        trace = generate_trace("astar", 1500, 0)
        with pytest.raises(ValueError, match="unknown functional backend"):
            run_functional(
                trace,
                CompositePredictor(CompositeConfig().homogeneous(64)),
                backend="simd",
            )

    def test_vector_rejects_unsupported_predictor(self):
        trace = generate_trace("astar", 1500, 0)
        adapter = EvesAdapter(eves_8kb())
        assert vector_unsupported_reason(trace, adapter) is not None
        with pytest.raises(ValueError, match="unsupported predictor type"):
            run_functional(trace, adapter, backend="vector")

    def test_auto_falls_back_for_unsupported_predictor(self):
        trace = generate_trace("astar", 1500, 0)
        auto = run_functional(trace, EvesAdapter(eves_8kb()))
        obj = run_functional(
            trace, EvesAdapter(eves_8kb()), backend="object"
        )
        assert asdict(auto) == asdict(obj)

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
            run_functional(
                unpacked,
                CompositePredictor(CompositeConfig().homogeneous(64)),
                backend="vector",
            )

    def test_supported_composite_reports_no_reason(self):
        trace = generate_trace("astar", 1500, 0)
        predictor = CompositePredictor(CompositeConfig().homogeneous(64))
        assert vector_unsupported_reason(trace, predictor) is None
