"""The simulator workloads: ``fig6_mini`` and ``explore_functional``.

Both drive the program in-process through its public entry points:

* ``fig6_mini`` regenerates Figure 6 (``experiments.fig6_accuracy_monitor``)
  over the smoke workloads with 5K-instruction traces: 40 composite
  timing cells, which also simulate the 10 no-VP baselines, against a
  fresh results database and a trace store warmed during set-up.
  Nearly all the time is the cycle model.  The traces are a quarter of
  smoke length so that one run holds several campaigns and reports
  their median: a single 20K-instruction campaign per run spread by a
  quarter from run to run on a shared 2-vCPU host.
* ``explore_functional`` runs a cold successive-halving search of the
  ``table6`` grid in functional mode at smoke scale
  (``explore.run_explore``) against a fresh results database, then
  reruns it warm against the same database.  It never touches the
  cycle model or the component objects: the vectorised functional
  backend, trace loads and the results database do the work.

Every campaign starts with the per-process caches cleared, so repeated
campaigns in one run do the same work (the baselines' memo included).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from contextlib import contextmanager, nullcontext

from benchlib import (
    SETUP_REPEATS,
    Budget,
    Pace,
    digest,
    input_seed,
    load_pinned,
    peak_rss_mb_self,
    percentile,
    tail,
)
from tracer import Tracer

from repro.branch.unit import BranchUnit
from repro.composite.composite import CompositePredictor
from repro.harness import (
    experiments,
    explore,
    functional,
    functional_vec,
    resilient,
    resultsdb,
    runner,
)
from repro.harness.presets import EXPLORE_GRIDS, SMOKE, ExperimentScale
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import CoreModel
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor
from repro.workloads import generator, store
from repro.workloads.generator import ensure_stored

COMPONENTS = (
    ("lvp", LvpPredictor), ("sap", SapPredictor),
    ("cvp", CvpPredictor), ("cap", CapPredictor),
)

#: The grid and ranking metric of ``explore_functional``.
EXPLORE_GRID = EXPLORE_GRIDS["table6"]
EXPLORE_METRIC = "coverage"

#: Root spans the benchmark itself opens in traced runs.
ROOTS = ("bench.campaign",)


#: Trace length of ``fig6_mini`` (smoke scale uses 20K).
FIG6_TRACE_LENGTH = 5_000


def fig6_scale(seed: int) -> ExperimentScale:
    """The smoke workloads at ``FIG6_TRACE_LENGTH``, on the seed's inputs."""
    return dataclasses.replace(
        SMOKE, name="smoke-5k", trace_length=FIG6_TRACE_LENGTH,
        seed=input_seed(seed),
    )


def explore_scale(seed: int) -> ExperimentScale:
    """Smoke scale on the seed's inputs: the table6 grid's three halving
    rungs evaluate 93 functional cells, a few seconds per search."""
    return dataclasses.replace(SMOKE, seed=input_seed(seed))


# ----------------------------------------------------------------------
# Set-up and one campaign
# ----------------------------------------------------------------------

def warm_trace_store(ws, scale: ExperimentScale) -> float:
    """Generate the scale's traces into a fresh on-disk store.

    Returns the seconds taken.  The store stays active (through
    ``REPRO_TRACE_CACHE_DIR``) for the campaigns that follow.
    """
    start = time.perf_counter()
    os.environ[store.ENV_VAR] = str(ws.fresh("traces"))
    runner.clear_caches()
    for workload, seed in scale.runs():
        ensure_stored(workload, scale.trace_length, seed)
    runner.clear_caches()
    return time.perf_counter() - start


def fresh_results_db(ws) -> None:
    os.environ[resultsdb.ENV_VAR] = str(ws.fresh("results-db"))


@contextmanager
def counting_instructions():
    """Count trace instructions handed to the cycle model and the
    functional evaluator (one call per computed cell)."""
    box = [0]
    simulate = runner.simulate
    run_functional = functional.run_functional

    def counted_simulate(trace, *args, **kwargs):
        box[0] += len(trace)
        return simulate(trace, *args, **kwargs)

    def counted_run_functional(trace, *args, **kwargs):
        box[0] += len(trace)
        return run_functional(trace, *args, **kwargs)

    runner.simulate = counted_simulate
    functional.run_functional = counted_run_functional
    try:
        yield box
    finally:
        runner.simulate = simulate
        functional.run_functional = run_functional


def campaign(fn, tracer: Tracer | None = None,
             pace: Pace | None = None) -> dict:
    """Run one campaign with every per-process cache cleared first.

    Records each cell's outcome through the harness's progress hook,
    and the trace instructions the computed cells processed.  With a
    ``pace``, the hook also probes host speed between cells; the
    probing time is left out of ``elapsed``.
    """
    runner.clear_caches()
    outcomes: dict = {}
    probing = [0.0]

    factors: dict = {}

    def progress(outcome, done, total):
        outcomes[outcome.id] = outcome
        if pace is not None:
            probing[0] += pace.maybe_sample()
            factors[outcome.id] = pace.local_factor()

    policy = resilient.ExecutionPolicy(progress=progress)
    root = tracer.span("bench.campaign") if tracer else nullcontext()
    with resilient.use_policy(policy), counting_instructions() as counted:
        with root:
            start = time.perf_counter()
            payload = fn()
            elapsed = time.perf_counter() - start - probing[0]
    return {
        "elapsed": elapsed, "outcomes": outcomes, "cell_factors": factors,
        "instructions": counted[0], "payload": payload,
    }




# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def wrap_simulator(tracer: Tracer) -> None:
    """Wrap every simulator and harness layer at its public boundary."""
    tracer.wrap(runner, "generate_trace", "workloads")
    tracer.wrap(generator, "generate_trace", "workloads")
    tracer.wrap(store.TraceStore, "load", "workloads")
    tracer.wrap(CoreModel, "run", "pipeline.core")
    for attr in ("fetch_branch_fields", "resolve_fields"):
        tracer.wrap(BranchUnit, attr, "branch.unit")
    for attr in ("fetch_latency", "load_latency", "store_latency",
                 "probe_l1d"):
        tracer.wrap(MemoryHierarchy, attr, "memory.hierarchy")
    wrap_predictors(tracer)
    tracer.wrap(resilient, "run_cells", "harness.resilient")
    tracer.wrap(explore, "run_explore", "harness.explore")
    tracer.wrap(functional_vec, "run_functional_vec", "harness.functional_vec")
    tracer.wrap(functional_vec, "precompute_load_batch",
                "harness.functional_vec.precompute")
    tracer.wrap(resultsdb.ResultsDb, "store_cell", "harness.resultsdb.store")
    tracer.wrap(resultsdb.ResultsDb, "lookup_cell", "harness.resultsdb.lookup")

    unsupported = functional_vec.vector_unsupported_reason

    def counted_unsupported(trace, predictor):
        reason = unsupported(trace, predictor)
        if reason is not None:
            tracer.count("harness.functional.object_fallbacks")
        return reason

    tracer.patch(functional_vec, "vector_unsupported_reason",
                 counted_unsupported)


def wrap_predictors(tracer: Tracer) -> None:
    """Wrap the four components and the composite around them."""
    for name, cls in COMPONENTS:
        tracer.wrap(cls, "predict", f"predictors.{name}.predict")
        tracer.wrap(cls, "train", f"predictors.{name}.train")
    tracer.wrap(CompositePredictor, "predict", "composite.predict")
    tracer.wrap(CompositePredictor, "validate_and_train", "composite.train")
    tracer.wrap(CompositePredictor, "tick_instructions", "composite.tick")


def predictor_layers(tracer: Tracer) -> dict:
    metrics = {}
    for name, _ in COMPONENTS:
        for op in ("predict", "train"):
            layer = f"predictors.{name}.{op}"
            metrics[f"{layer}_s"] = tracer.self_s(layer)
            metrics[f"{layer}_calls"] = tracer.calls(layer)
    for op in ("predict", "train", "tick"):
        metrics[f"composite.{op}.self_s"] = tracer.self_s(f"composite.{op}")
    return metrics


def simulator_layers(tracer: Tracer) -> dict:
    metrics = {
        "workloads.trace_load_s": tracer.self_s("workloads"),
        "workloads.trace_load_calls": tracer.calls("workloads"),
        "pipeline.core.self_s": tracer.self_s("pipeline.core"),
        "branch.unit.self_s": tracer.self_s("branch.unit"),
        "branch.unit.calls": tracer.calls("branch.unit"),
        "memory.hierarchy.self_s": tracer.self_s("memory.hierarchy"),
        "memory.hierarchy.calls": tracer.calls("memory.hierarchy"),
        "harness.functional_vec.precompute_s":
            tracer.self_s("harness.functional_vec.precompute"),
        "harness.functional_vec.self_s":
            tracer.self_s("harness.functional_vec"),
        "harness.functional.object_fallbacks":
            tracer.counters.get("harness.functional.object_fallbacks", 0),
        "harness.explore.self_s": tracer.self_s("harness.explore"),
        "harness.resilient.self_s": tracer.self_s("harness.resilient"),
        "harness.resultsdb.store_s":
            tracer.self_s("harness.resultsdb.store"),
        "harness.resultsdb.store_calls":
            tracer.calls("harness.resultsdb.store"),
        "harness.resultsdb.lookup_s":
            tracer.self_s("harness.resultsdb.lookup"),
        "harness.resultsdb.lookup_calls":
            tracer.calls("harness.resultsdb.lookup"),
    }
    metrics.update(predictor_layers(tracer))
    return metrics


def timing_metrics(runs: list[dict], setups: list[float], import_s: float,
                   pace: Pace) -> dict:
    """``setup_s``, ``campaign_s`` and ``sim_kips`` at reference speed.

    Each campaign's wall time is scaled by its own host-speed factor;
    the import time by the first set-up's.
    """
    scaled = [r["elapsed"] * r["factor"] for r in runs]
    return {
        "setup_s": import_s * pace.factors[0] + statistics.median(setups),
        "campaign_s": statistics.median(scaled),
        "sim_kips": statistics.median(
            r["instructions"] / t for r, t in zip(runs, scaled)
        ) / 1e3,
    }


def speed_note(runs: list[dict], pace: Pace) -> str:
    raw = statistics.median(r["elapsed"] for r in runs)
    return (f"raw wall campaign median {raw:.4f} s; host speed factors "
            f"{min(pace.factors):.3f}..{max(pace.factors):.3f}")


def latency_summary(campaigns: list[dict]) -> tuple[dict, str]:
    """Median over campaigns of each campaign's cell-time p50 and tail,
    at reference host speed (each cell scaled by the probes around it).

    Only computed cells count (not cached, not failed).  Every campaign
    of a workload has the same cell count, so the tail percentile is the
    same one in every campaign and every run.
    """
    p50s, tails = [], []
    for run in campaigns:
        ordered = sorted(
            o.elapsed * run["cell_factors"].get(o.id, run["factor"])
            for o in run["outcomes"].values() if o.status == "ok"
        )
        fraction, value = tail(ordered)
        p50s.append(percentile(ordered, 0.5))
        tails.append(value)
    metrics = {
        "op_p50_ms": statistics.median(p50s) * 1e3,
        "op_tail_ms": statistics.median(tails) * 1e3,
    }
    return metrics, (f"op_tail_ms is p{fraction * 100:g} of the "
                     f"{len(ordered)} cells of a campaign")


# ----------------------------------------------------------------------
# fig6_mini
# ----------------------------------------------------------------------

def fig6_check(run: dict, seed: int, pinned: dict) -> tuple[int, int]:
    """(attempted, failed) cells of one Figure 6 campaign.

    A cell fails if it errored or its result dict differs from the
    digest pinned for this input set.
    """
    expected = pinned.get("fig6_mini", {}).get(str(input_seed(seed)), {})
    outcomes = run["outcomes"]
    failed = 0
    for cell_id, outcome in outcomes.items():
        if outcome.status == "failed" or expected.get(cell_id) != digest(
            outcome.value
        ):
            failed += 1
    missing = len(set(expected) - set(outcomes))
    return len(outcomes) + missing, failed + missing


def fig6_cell_digests(run: dict) -> dict:
    return {
        cell_id: digest(o.value) for cell_id, o in run["outcomes"].items()
        if o.status != "failed"
    }


def fig6_campaign(ws, scale, tracer=None, pace=None) -> dict:
    fresh_results_db(ws)
    return campaign(
        lambda: experiments.fig6_accuracy_monitor(scale), tracer, pace
    )


def run_fig6(ws, seed: int, seconds: float, traced: bool,
             import_s: float) -> dict:
    scale = fig6_scale(seed)
    pinned = load_pinned()
    pace = Pace()
    repeats = 1 if traced else SETUP_REPEATS
    setups = [warm_trace_store(ws, scale) * pace.factor()
              for _ in range(repeats)]
    runs = []
    if traced:
        runs.append(fig6_campaign(ws, scale))
        runs[-1]["factor"] = pace.factor()
        with Tracer() as tracer:
            wrap_simulator(tracer)
            runs.append(fig6_campaign(ws, scale, tracer))
        runs[-1]["factor"] = pace.factor()
    else:
        budget = Budget(seconds)
        while budget.more():
            runs.append(fig6_campaign(ws, scale, pace=pace))
            runs[-1]["factor"] = pace.factor()
    attempted = failed = 0
    for run in runs:
        a, f = fig6_check(run, seed, pinned)
        attempted += a
        failed += f
    config = {
        "scale": scale.name, "workloads": list(scale.workloads),
        "trace_length": scale.trace_length, "per_component_entries": 256,
    }
    result = {
        "config": config, "attempted": attempted, "failed": failed,
        "notes": [f"{len(runs)} campaign(s) of {len(runs[0]['outcomes'])} cells"],
    }
    if traced:
        untraced, traced_run = runs
        cells = [o.value for o in traced_run["outcomes"].values()
                 if o.status == "ok"]
        per_layer = simulator_layers(tracer)
        per_layer.update({
            "composite.coverage": sum(c["coverage"] for c in cells) / len(cells),
            "composite.accuracy": sum(c["accuracy"] for c in cells) / len(cells),
            "trace_overhead": (
                traced_run["elapsed"] * traced_run["factor"]
                / (untraced["elapsed"] * untraced["factor"])
            ),
        })
        result.update(per_layer=per_layer, tracer=tracer,
                      roots=ROOTS)
        return result
    latency, note = latency_summary(runs)
    result["metrics"] = timing_metrics(runs, setups, import_s, pace)
    result["metrics"].update(latency, peak_rss_mb=peak_rss_mb_self())
    result["notes"] += [note, speed_note(runs, pace)]
    return result


# ----------------------------------------------------------------------
# explore_functional
# ----------------------------------------------------------------------

def explore_core(report: dict) -> dict:
    """The parts of an explore report a correct search reproduces."""
    return {
        key: report[key]
        for key in ("groups", "schedule", "evaluated_cells", "full_grid_cells")
    }


def explore_pass(ws, scale, tracer=None, pace=None) -> dict:
    """A cold search against a fresh results DB, then a warm rerun."""
    fresh_results_db(ws)
    search = lambda: explore.run_explore(
        EXPLORE_GRID, scale, metric=EXPLORE_METRIC, mode="functional"
    )
    cold = campaign(search, tracer, pace)
    warm = campaign(search, tracer)
    return {"cold": cold, "warm": warm}


def explore_check(one: dict, seed: int, pinned: dict) -> tuple[int, int]:
    """(attempted, failed) cell evaluations of one cold+warm pass.

    The cold search must reproduce the pinned report digest; the warm
    rerun must reproduce the same report from 100 % database hits with
    no cell computed.  A pass that breaks either counts all its cells
    as failed.
    """
    expected = pinned.get("explore_functional", {}).get(
        str(input_seed(seed))
    )
    cold = one["cold"]["payload"]
    warm = one["warm"]["payload"]
    cold_cells = cold["evaluated_cells"]
    warm_cells = warm["evaluated_cells"]
    failed = cold.get("failures", {}).get("failed_cells", 0)
    if digest(explore_core(cold)) != expected:
        failed = cold_cells
    usage = warm.get("results_db", {})
    if (explore_core(warm) != explore_core(cold)
            or usage.get("computed") != 0
            or usage.get("hits") != usage.get("lookups")):
        failed += warm_cells
    return cold_cells + warm_cells, failed


def run_explore_workload(ws, seed: int, seconds: float, traced: bool,
                         import_s: float) -> dict:
    scale = explore_scale(seed)
    pinned = load_pinned()
    pace = Pace()
    repeats = 1 if traced else SETUP_REPEATS
    setups = [warm_trace_store(ws, scale) * pace.factor()
              for _ in range(repeats)]
    passes = []
    if traced:
        passes.append(explore_pass(ws, scale))
        passes[-1]["cold"]["factor"] = pace.factor()
        with Tracer() as tracer:
            wrap_simulator(tracer)
            passes.append(explore_pass(ws, scale, tracer))
        passes[-1]["cold"]["factor"] = pace.factor()
    else:
        budget = Budget(seconds)
        while budget.more():
            passes.append(explore_pass(ws, scale, pace=pace))
            passes[-1]["cold"]["factor"] = pace.factor()
    attempted = failed = 0
    for one in passes:
        a, f = explore_check(one, seed, pinned)
        attempted += a
        failed += f
    cold = [p["cold"] for p in passes]
    warm = [p["warm"] for p in passes]
    config = {
        "grid": EXPLORE_GRID.name, "metric": EXPLORE_METRIC,
        "mode": "functional", "workloads": list(scale.workloads),
        "trace_length": scale.trace_length,
        "seeds_per_workload": len(scale.seeds),
    }
    rerun = statistics.median(w["elapsed"] for w in warm)
    result = {
        "config": config, "attempted": attempted, "failed": failed,
        "notes": [
            f"{len(passes)} pass(es); cold search evaluates "
            f"{cold[0]['payload']['evaluated_cells']} cells; "
            f"warm rerun median {rerun:.4f} s",
        ],
    }
    if traced:
        traced_pass = passes[1]
        values = [
            o.value for o in traced_pass["cold"]["outcomes"].values()
            if o.status == "ok"
        ]
        loads = sum(v["loads"] for v in values)
        predicted = sum(v["predicted_loads"] for v in values)
        correct = sum(v["correct_predictions"] for v in values)
        per_layer = simulator_layers(tracer)
        per_layer.update({
            "harness.resultsdb.rerun_s": traced_pass["warm"]["elapsed"],
            "composite.coverage": predicted / loads if loads else 0.0,
            "composite.accuracy": correct / predicted if predicted else 0.0,
            "trace_overhead": (
                traced_pass["cold"]["elapsed"] * traced_pass["cold"]["factor"]
                / (passes[0]["cold"]["elapsed"] * passes[0]["cold"]["factor"])
            ),
        })
        result.update(per_layer=per_layer, tracer=tracer, roots=ROOTS)
        return result
    latency, note = latency_summary(cold)
    result["metrics"] = timing_metrics(cold, setups, import_s, pace)
    result["metrics"].update(latency, peak_rss_mb=peak_rss_mb_self())
    result["notes"] += [note, speed_note(cold, pace)]
    return result
