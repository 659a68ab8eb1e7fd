"""Experiment harness: regenerates every table and figure of the paper.

Two evaluation modes are provided:

* :mod:`repro.harness.functional` -- a fast program-order simulator
  that measures predictor coverage/accuracy/overlap without timing.
  Used for Figure 2 (oracle breakdown), Figure 4 (overlap), Figure 7
  (smart-training breakdown), Table V (Listing-1 warm-up), and the
  coverage half of Figures 11/12.
* :mod:`repro.pipeline` -- the cycle-level core model, used for every
  speedup measurement.

:mod:`repro.harness.experiments` has one entry point per paper
artifact; :mod:`repro.harness.formatting` renders the results as the
text tables the benchmark harness prints.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.harness.functional": ("FunctionalResult", "run_functional"),
    "repro.harness.presets": (
        "ExperimentScale", "FULL", "QUICK", "SMOKE", "scale_from_env",
    ),
    "repro.harness.resilient": (
        "Cell", "CellOutcome", "ExecutionPolicy", "RetryPolicy", "SweepReport",
        "run_cells", "use_policy",
    ),
    "repro.harness.runner": (
        "baseline_result", "run_predictor", "workload_trace",
    ),
})

__all__ = [
    "Cell",
    "CellOutcome",
    "ExecutionPolicy",
    "ExperimentScale",
    "FULL",
    "FunctionalResult",
    "QUICK",
    "RetryPolicy",
    "SMOKE",
    "SweepReport",
    "baseline_result",
    "run_cells",
    "run_functional",
    "run_predictor",
    "scale_from_env",
    "use_policy",
    "workload_trace",
]
