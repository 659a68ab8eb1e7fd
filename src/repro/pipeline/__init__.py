"""Trace-driven out-of-order core timing model.

This is the library's substitute for the paper's proprietary
cycle-accurate simulator (see DESIGN.md section 2).  It is a
*dependency-and-resource* OoO model: each instruction's fetch,
dispatch, issue, completion, and commit cycles are computed in one
program-order pass, constrained by

* fetch bandwidth (4-wide, breaks on taken branches, L1I latency),
* the 13-cycle fetch-to-execute depth of the baseline (Table III),
* window occupancy (ROB 224 / IQ 97 / LDQ 72 / STQ 56),
* issue bandwidth (8-wide: 2 load-store + 6 generic lanes),
* register dependencies and execution latencies,
* the memory hierarchy (L1/L2/L3/TLB/prefetchers),
* branch mispredictions (TAGE/ITTAGE/RAS redirects at execute), and
* load value prediction: VPE forwarding of predicted values, PAQ
  D-cache probes for predicted addresses, and flush-based recovery on
  value mispredictions.

The model captures the first-order effects load value prediction lives
on -- breaking load-to-use dependencies, flush costs, predictor warm-up
under pipelining -- which is what the paper's relative comparisons
need.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pipeline.config": ("DEFAULT_LATENCIES", "CoreConfig"),
    "repro.pipeline.core": ("CoreModel", "SimulationInterrupted", "simulate"),
    "repro.pipeline.result": ("SimResult",),
    "repro.pipeline.vp": ("NoPredictor", "ValuePredictorHost"),
})

__all__ = [
    "CoreConfig",
    "CoreModel",
    "DEFAULT_LATENCIES",
    "NoPredictor",
    "SimResult",
    "SimulationInterrupted",
    "ValuePredictorHost",
    "simulate",
]
