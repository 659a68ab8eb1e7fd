"""Simulator-core micro-benchmarks behind ``repro-lvp bench``.

The ROADMAP's perf trajectory is tracked as ``BENCH_simcore.json``
artifacts: each benchmark times a hot slice of the simulator --
trace generation, the baseline timing model, the composite-predictor
timing model, the functional harness, EVES, and per-component probe
cost -- with :func:`time.perf_counter_ns`, reporting the **median of
``repeats`` timed runs after one untimed warmup**.  Medians (not means)
keep one GC pause or scheduler hiccup from polluting a data point.

The runnable wrapper lives in ``benchmarks/perf/microbench.py``; the
logic is in the installed package so ``repro-lvp bench`` works from any
working directory.  Compare the ``composite_sim`` median across
commits: the incremental folded-history work (PR 2) is acceptance-gated
on it, and CI uploads the JSON from every run so regressions are
visible in the artifact trail.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.harness.benchdiff import make_payload, median_lane

#: Benchmarked workload: branchy integer code, the profile that
#: stresses history folding hardest.
WORKLOAD = "gcc2k"
#: Component predictors timed individually for per-probe cost.
PROBE_COMPONENTS = ("lvp", "sap", "cvp", "cap")

#: Pre-change medians (fold_bits recomputed per probe), measured at the
#: default full-size config (gcc2k, length 20000, repeats 5) on the
#: machine that produced the first checked-in ``BENCH_simcore.json``.
#: Kept so the incremental-folding rework's effect stays visible in the
#: artifact trail.  Only meaningful on comparable hardware -- quick/CI
#: runs omit the comparison.
PRE_FOLDING_REFERENCE_NS = {
    "baseline_sim": 354_775_365,
    "composite_sim": 721_099_568,
    "functional_composite": 209_397_434,
    "eves32_sim": 457_738_920,
}

#: Pre-columnar medians (object-path simulator loop, no on-disk trace
#: store), same config and machine as the incremental-folding
#: ``BENCH_simcore.json``.  The columnar-trace rework is
#: acceptance-gated against these: ``trace_gen`` (warm, store-backed)
#: must beat the old cold generation by >= 1.5x, ``baseline_sim`` and
#: ``composite_sim`` by >= 1.25x.  ``trace_gen`` here is the *cold*
#: number -- the only mode that existed -- so the cold benchmark
#: compares against it too.
PRE_COLUMNAR_REFERENCE_NS = {
    "trace_gen": 107_267_606,
    "baseline_sim": 288_213_713,
    "composite_sim": 451_794_093,
    "functional_composite": 209_879_419,
    "eves32_sim": 364_336_179,
}


def _median_ns(fn: Callable[[], None], repeats: int) -> dict:
    """Median wall time of ``fn`` over ``repeats`` runs (1 warmup)."""
    fn()
    runs = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        runs.append(time.perf_counter_ns() - start)
    return median_lane(runs)


def _collect_probes(trace):
    """Replay ``trace``'s histories, returning fetch-time load probes."""
    from repro.branch.history import HistorySet
    from repro.isa.instruction import OpClass
    from repro.predictors.types import LoadProbe

    histories = HistorySet()
    # Register the folds the probed components use, as the pipeline
    # would at bind time.
    from repro.predictors import make_component

    components = {
        name: make_component(name, 256) for name in PROBE_COMPONENTS
    }
    for component in components.values():
        component.bind_history(histories)

    probes = []
    for inst in trace.instructions:
        op = inst.op
        if op.is_branch:
            if op is OpClass.BRANCH_COND:
                histories.push_branch(inst.pc, inst.taken)
            else:
                histories.push_unconditional(inst.pc)
        elif op is OpClass.STORE:
            histories.push_memory(inst.pc)
        elif op is OpClass.LOAD:
            if inst.predictable:
                probes.append(LoadProbe(
                    pc=inst.pc,
                    direction_history=histories.direction,
                    path_history=histories.path,
                    load_path_history=histories.load_path,
                    folded=histories.folded_values(),
                ))
            histories.push_memory(inst.pc)
    return components, probes


def run_benchmarks(
    length: int = 20000,
    repeats: int = 5,
    quick: bool = False,
    workload: str = WORKLOAD,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the simulator-core micro-benchmark suite.

    Returns the JSON-ready payload written to ``BENCH_simcore.json``.
    ``quick`` shrinks sizes/repeats for CI smoke runs; quick numbers
    are not comparable with full-size ones (the payload records the
    configuration so trajectories only compare like with like).
    """
    import os
    import tempfile

    from repro.composite.composite import CompositePredictor
    from repro.composite.config import CompositeConfig
    from repro.eves.eves import eves_32kb
    from repro.harness import functional, functional_vec
    from repro.pipeline.core import CoreModel
    from repro.pipeline.frontend import clear_frontend_streams
    from repro.pipeline.vp import EvesAdapter
    from repro.workloads import store as trace_store
    from repro.workloads.generator import (
        _generate_cached,
        ensure_stored,
        generate_trace,
    )

    if quick:
        length = min(length, 2000)
        repeats = min(repeats, 2)
    note = progress or (lambda name: None)
    benchmarks: dict = {}

    def regen() -> None:
        """One trace acquisition with the in-process memo dropped."""
        _generate_cached.cache_clear()
        generate_trace(workload, length)

    # trace_gen (warm): the store-backed path sweep workers take after
    # the supervisor's pre-warm -- load packed columns from a populated
    # on-disk store.  A private temporary store keeps the measurement
    # hermetic whatever REPRO_TRACE_CACHE_DIR says outside.  Each entry
    # records the store hit/miss counters observed *during its timed
    # runs* so warm and cold numbers can never be conflated.
    note("trace_gen")
    saved_env = os.environ.get(trace_store.ENV_VAR)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        os.environ[trace_store.ENV_VAR] = tmp
        trace_store.reset_active_store()
        _generate_cached.cache_clear()
        try:
            ensure_stored(workload, length)
            store = trace_store.active_store()
            before = store.stats.as_dict()
            benchmarks["trace_gen"] = _median_ns(regen, repeats)
            after = store.stats.as_dict()
            benchmarks["trace_gen"]["trace_store"] = {
                "enabled": True,
                "mode": "warm",
                **{k: after[k] - before[k] for k in after},
            }
        finally:
            if saved_env is None:
                os.environ.pop(trace_store.ENV_VAR, None)
            else:
                os.environ[trace_store.ENV_VAR] = saved_env
            trace_store.reset_active_store()
            _generate_cached.cache_clear()

    # trace_gen_cold: no store -- full regeneration per run, directly
    # comparable with pre-columnar trace_gen numbers.
    note("trace_gen_cold")
    saved_env = os.environ.pop(trace_store.ENV_VAR, None)
    trace_store.reset_active_store()
    try:
        benchmarks["trace_gen_cold"] = _median_ns(regen, repeats)
        benchmarks["trace_gen_cold"]["trace_store"] = {
            "enabled": False,
            "mode": "cold",
            "hits": 0, "misses": 0, "saves": 0, "corrupt": 0,
        }
    finally:
        if saved_env is not None:
            os.environ[trace_store.ENV_VAR] = saved_env
        trace_store.reset_active_store()

    trace = generate_trace(workload, length)

    # The timing lanes rerun one trace object, so each repeat first
    # drops the trace's recorded front end: every timed run pays for
    # one full simulation, comparable with the lanes' history.
    note("baseline_sim")
    def baseline_sim() -> None:
        clear_frontend_streams()
        CoreModel().run(trace)
    benchmarks["baseline_sim"] = _median_ns(baseline_sim, repeats)

    note("composite_sim")
    def composite_sim() -> None:
        clear_frontend_streams()
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        CoreModel(predictor=predictor).run(trace)
    benchmarks["composite_sim"] = _median_ns(composite_sim, repeats)

    # The object lane runs the per-instruction interpreter: the
    # baseline the vectorized lane is measured against (run_functional
    # would route both to the vector backend).
    note("functional_composite")
    def functional_composite() -> None:
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        functional.run_functional_objects(trace, predictor)
    benchmarks["functional_composite"] = _median_ns(
        functional_composite, repeats
    )

    note("functional_composite_vec")
    def functional_composite_vec() -> None:
        predictor = CompositePredictor(CompositeConfig().homogeneous(256))
        functional_vec.run_functional_vec(trace, predictor)
    benchmarks["functional_composite_vec"] = _median_ns(
        functional_composite_vec, repeats
    )
    benchmarks["functional_composite_vec"]["speedup_vs_object"] = round(
        benchmarks["functional_composite"]["median_ns"]
        / benchmarks["functional_composite_vec"]["median_ns"],
        3,
    )

    note("eves32_sim")
    def eves32_sim() -> None:
        clear_frontend_streams()
        CoreModel(predictor=EvesAdapter(eves_32kb())).run(trace)
    benchmarks["eves32_sim"] = _median_ns(eves32_sim, repeats)

    note("component_probe")
    components, probes = _collect_probes(trace)
    probe_costs: dict = {}
    for name, component in components.items():
        predict = component.predict
        def probe_all() -> None:
            for probe in probes:
                predict(probe)
        timing = _median_ns(probe_all, repeats)
        probe_costs[name] = {
            "probes": len(probes),
            "median_ns_per_probe": (
                timing["median_ns"] / len(probes) if probes else 0.0
            ),
            "median_ns": timing["median_ns"],
        }
    benchmarks["component_probe"] = probe_costs

    payload = make_payload(
        "simcore",
        {
            "workload": workload,
            "length": length,
            "repeats": repeats,
            "warmup": 1,
            "quick": quick,
            "timer": "time.perf_counter_ns",
            "statistic": "median",
        },
        benchmarks,
    )
    if not quick and length == 20000 and workload == WORKLOAD:
        pre_columnar_speedup = {
            name: round(ref / benchmarks[name]["median_ns"], 3)
            for name, ref in PRE_COLUMNAR_REFERENCE_NS.items()
        }
        # The cold benchmark replays exactly what the pre-columnar
        # trace_gen measured, so it shares that reference point.
        pre_columnar_speedup["trace_gen_cold"] = round(
            PRE_COLUMNAR_REFERENCE_NS["trace_gen"]
            / benchmarks["trace_gen_cold"]["median_ns"],
            3,
        )
        payload["reference"] = {
            "description": (
                "historical medians at this config; "
                "speedup = reference / measured"
            ),
            "pre_folding": {
                "median_ns": dict(PRE_FOLDING_REFERENCE_NS),
                "speedup": {
                    name: round(ref / benchmarks[name]["median_ns"], 3)
                    for name, ref in PRE_FOLDING_REFERENCE_NS.items()
                },
            },
            "pre_columnar": {
                "median_ns": dict(PRE_COLUMNAR_REFERENCE_NS),
                "speedup": pre_columnar_speedup,
            },
        }
    return payload
