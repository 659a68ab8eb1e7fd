"""repro -- reproduction of "Efficient Load Value Prediction using
Multiple Predictors and Filters" (Sheikh & Hower, HPCA 2019).

Public API tour
---------------

Predictors (Section III / Table IV)::

    from repro.predictors import make_component
    lvp = make_component("lvp", entries=1024)

Composite predictor with filters (Section V)::

    from repro.composite import CompositePredictor, CompositeConfig
    predictor = CompositePredictor(CompositeConfig().homogeneous(256))

Timing evaluation on synthetic workloads (Section II substitution)::

    from repro.workloads import generate_trace
    from repro.pipeline import simulate
    trace = generate_trace("gcc2k", length=25_000)
    baseline = simulate(trace)
    result = simulate(trace, predictor)
    print(result.speedup_over(baseline), result.coverage, result.accuracy)

Every table/figure of the paper::

    from repro.harness import experiments
    print(experiments.fig5_composite_vs_component())

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.composite import CompositeConfig, CompositePredictor
from repro.eves import EvesPredictor, eves_8kb, eves_32kb, eves_infinite
from repro.isa import Instruction, OpClass, Trace
from repro.pipeline import CoreConfig, SimResult, simulate
from repro.predictors import (
    COMPONENT_NAMES,
    PredictionKind,
    make_component,
)
from repro.workloads import ALL_WORKLOADS, generate_trace, listing1_trace

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "COMPONENT_NAMES",
    "CompositeConfig",
    "CompositePredictor",
    "CoreConfig",
    "EvesPredictor",
    "Instruction",
    "OpClass",
    "PredictionKind",
    "SimResult",
    "Trace",
    "eves_8kb",
    "eves_32kb",
    "eves_infinite",
    "generate_trace",
    "listing1_trace",
    "make_component",
    "simulate",
    "__version__",
]
