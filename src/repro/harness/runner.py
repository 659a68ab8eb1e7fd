"""Shared workload/baseline plumbing plus the sweep-cell entry point.

Baseline (no-value-prediction) timing runs are pure functions of the
(workload, length, seed) triple, and every figure compares dozens of
predictor configurations against the same baselines, so baseline
results are memoized per process here.  Trace memoization itself lives
in :func:`repro.workloads.generator.generate_trace`; both caches hold
:data:`repro.workloads.generator.CACHE_SIZE` entries (one knob, the
``REPRO_CACHE_SIZE`` environment variable).

This module also defines the **cell** layer the resilient harness
executes: :func:`run_speedup_cell` is a picklable, subprocess-safe
entry point that rebuilds a predictor from a declarative spec, runs one
(workload, config) timing comparison, and returns a JSON-friendly
metrics dict (see :mod:`repro.harness.resilient`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any

from repro.common.tracememo import clear_trace_memo
from repro.composite.build import build_predictor
from repro.harness import resilient, resultsdb
from repro.harness.functional import FUNCTIONAL_SEMANTICS_VERSION
from repro.isa.trace import Trace
from repro.pipeline.core import (
    TIMING_SEMANTICS_VERSION,
    SimulationInterrupted,
    simulate,
)
from repro.pipeline.result import SimResult
from repro.pipeline.vp import ValuePredictorHost
from repro.workloads.generator import (
    CACHE_SIZE,
    GENERATOR_VERSION,
    clear_trace_caches,
    ensure_stored,
    generate_trace,
)

#: Dotted reference to :func:`run_speedup_cell`, for building cells.
SPEEDUP_CELL_FN = "repro.harness.runner:run_speedup_cell"

#: Dotted reference to :func:`run_functional_cell`, for building cells.
FUNCTIONAL_CELL_FN = "repro.harness.runner:run_functional_cell"

# Everything a sweep cell's value can depend on fingerprints through
# these registrations; importing this module (which cell_fingerprint
# forces, since both cell fns live here) makes the registry complete.
resultsdb.register_semantics("repro.pipeline.core", TIMING_SEMANTICS_VERSION)
resultsdb.register_semantics(
    "repro.harness.functional", FUNCTIONAL_SEMANTICS_VERSION
)
resultsdb.register_semantics("repro.workloads.generator", GENERATOR_VERSION)


def workload_trace(name: str, length: int, seed: int = 0) -> Trace:
    """The trace for a named workload (memoized by the generator)."""
    return generate_trace(name, length, seed)


_baseline_cache: OrderedDict[tuple[str, int, int], SimResult] = OrderedDict()


def baseline_result(
    name: str, length: int, seed: int = 0, interrupt=None
) -> SimResult:
    """The no-VP baseline timing run (memoized, ``CACHE_SIZE`` entries).

    ``interrupt`` is only consulted when the baseline is actually
    simulated (cache misses); it never affects the cached value's
    identity because the result is deterministic in the key.
    """
    key = (name, length, seed)
    cached = _baseline_cache.get(key)
    if cached is not None:
        _baseline_cache.move_to_end(key)
        return cached
    result = simulate(workload_trace(name, length, seed), interrupt=interrupt)
    _baseline_cache[key] = result
    while len(_baseline_cache) > CACHE_SIZE:
        _baseline_cache.popitem(last=False)
    return result


def run_predictor(
    name: str,
    length: int,
    predictor: ValuePredictorHost,
    seed: int = 0,
    interrupt=None,
) -> SimResult:
    """One timing run of a predictor assembly on one workload."""
    return simulate(
        workload_trace(name, length, seed), predictor, interrupt=interrupt
    )


def speedup(
    name: str,
    length: int,
    predictor: ValuePredictorHost,
    seed: int = 0,
    interrupt=None,
) -> tuple[float, SimResult]:
    """Timing run plus relative speedup over the cached baseline."""
    result = run_predictor(name, length, predictor, seed, interrupt=interrupt)
    return (
        result.speedup_over(baseline_result(name, length, seed, interrupt)),
        result,
    )


# ----------------------------------------------------------------------
# Cell layer: the worker entry point for declarative predictor specs
# (built by repro.composite.build.build_predictor)
# ----------------------------------------------------------------------

def _deadline_interrupt():
    """An interrupt hook enforcing the cell's cooperative deadline."""
    deadline = resilient.cooperative_deadline()
    if deadline is None:
        return None
    return lambda _done: time.monotonic() >= deadline


def run_speedup_cell(spec: dict) -> dict:
    """Execute one (workload, predictor-config) sweep cell.

    ``spec`` carries ``workload``, ``length``, ``seed``, and a
    ``predictor`` spec for :func:`build_predictor`.  Returns a flat
    JSON-friendly metrics dict (speedup fraction, coverage, accuracy,
    PAQ probes, predicted loads, IPC) -- everything the experiment
    aggregations consume, so results can be served from the results
    database without re-simulating.

    Honors the resilient harness's cooperative deadline by polling it
    from the timing model's interrupt hook; an expired deadline
    surfaces as :class:`repro.harness.resilient.CellTimeout`.
    """
    interrupt = _deadline_interrupt()
    try:
        gain, result = speedup(
            spec["workload"], spec["length"],
            build_predictor(spec["predictor"]), spec.get("seed", 0),
            interrupt=interrupt,
        )
    except SimulationInterrupted as exc:
        raise resilient.CellTimeout(str(exc)) from exc
    return {
        "speedup": gain,
        "coverage": result.coverage,
        "accuracy": result.accuracy,
        "ipc": result.ipc,
        "paq_probes": result.paq_probes,
        "predicted_loads": result.predicted_loads,
    }


def run_functional_cell(spec: dict) -> dict:
    """Execute one (workload, predictor-config) *functional* sweep cell.

    Like :func:`run_speedup_cell` but without the timing model: the
    cell measures coverage/accuracy/overlap via
    :func:`repro.harness.functional.run_functional`.  ``spec`` carries
    ``workload``, ``length``, ``seed`` and a composite ``predictor``
    spec.
    """
    from repro.harness.functional import run_functional

    predictor = build_predictor(spec["predictor"])
    if predictor is None:
        raise ValueError(
            "functional cells need a predictor spec (kind != 'none')"
        )
    trace = workload_trace(
        spec["workload"], spec["length"], spec.get("seed", 0)
    )
    result = run_functional(trace, predictor)
    return {
        "loads": result.loads,
        "predicted_loads": result.predicted_loads,
        "correct_predictions": result.correct_predictions,
        "coverage": result.coverage,
        "accuracy": result.accuracy,
        "multi_confident_loads": result.multi_confident_loads,
        "disagreements": result.disagreements,
    }


def functional_cell(
    cell_id: str,
    workload: str,
    length: int,
    predictor: dict,
    seed: int = 0,
) -> "resilient.Cell":
    """Build the :class:`repro.harness.resilient.Cell` for one
    functional run."""
    return resilient.Cell(
        id=cell_id,
        fn=FUNCTIONAL_CELL_FN,
        spec={
            "workload": workload, "length": length, "seed": seed,
            "predictor": predictor,
        },
    )


def _prewarm_speedup_cells(specs: list) -> None:
    """Publish every pending cell's trace to the on-disk store once.

    Registered with the resilient harness so worker-pool sweeps warm
    the trace store from the supervisor before any worker forks: each
    unique (workload, length, seed) triple is generated (or found)
    exactly once, and the N workers then load packed columns instead
    of regenerating per process.  A no-op when ``REPRO_TRACE_CACHE_DIR``
    is unset.
    """
    seen: set[tuple] = set()
    for spec in specs:
        workload = spec.get("workload")
        length = spec.get("length")
        if workload is None or length is None:
            continue
        key = (workload, length, spec.get("seed", 0))
        if key in seen:
            continue
        seen.add(key)
        ensure_stored(*key)


resilient.register_prewarm(SPEEDUP_CELL_FN, _prewarm_speedup_cells)
resilient.register_prewarm(FUNCTIONAL_CELL_FN, _prewarm_speedup_cells)


def speedup_cell(
    cell_id: str,
    workload: str,
    length: int,
    predictor: dict | None,
    seed: int = 0,
) -> "resilient.Cell":
    """Build the :class:`repro.harness.resilient.Cell` for one run."""
    return resilient.Cell(
        id=cell_id,
        fn=SPEEDUP_CELL_FN,
        spec={
            "workload": workload, "length": length, "seed": seed,
            "predictor": predictor if predictor is not None else {"kind": "none"},
        },
    )


def clear_caches() -> None:
    """Drop every per-process cache layer (tests and memory pressure).

    Clears the baseline-result memo here, the per-trace memo of
    trace-derived data (:func:`repro.common.tracememo.clear_trace_memo`:
    load histories, the timing model's front-end streams and hierarchy
    recordings, per-geometry hash rows and columns, the functional
    backend's load batches), the generator's trace memo and ambient
    trace-store handle
    (:func:`repro.workloads.generator.clear_trace_caches`), and the
    ambient results-database handle with its in-process memo and usage
    totals, so one call resets every caching layer at once.  On-disk
    store and database entries are untouched -- delete those with
    ``repro-lvp cache --clear``.
    """
    _baseline_cache.clear()
    clear_trace_memo()
    clear_trace_caches()
    resultsdb.reset_active_db()
    resilient.reset_db_usage_totals()


__all__ = [
    "FUNCTIONAL_CELL_FN",
    "SPEEDUP_CELL_FN",
    "baseline_result",
    "build_predictor",
    "clear_caches",
    "functional_cell",
    "run_functional_cell",
    "run_predictor",
    "run_speedup_cell",
    "speedup",
    "speedup_cell",
    "workload_trace",
]
