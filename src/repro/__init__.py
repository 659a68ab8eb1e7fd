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

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.composite.composite": ("CompositePredictor",),
    "repro.composite.config": ("CompositeConfig",),
    "repro.eves.eves": (
        "EvesPredictor", "eves_8kb", "eves_32kb", "eves_infinite",
    ),
    "repro.isa.instruction": ("Instruction", "OpClass"),
    "repro.isa.trace": ("Trace",),
    "repro.pipeline.config": ("CoreConfig",),
    "repro.pipeline.core": ("simulate",),
    "repro.pipeline.result": ("SimResult",),
    "repro.predictors": ("COMPONENT_NAMES", "make_component"),
    "repro.predictors.types": ("PredictionKind",),
    "repro.workloads.generator": ("generate_trace",),
    "repro.workloads.listing1": ("listing1_trace",),
    "repro.workloads.profiles": ("ALL_WORKLOADS",),
})

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
