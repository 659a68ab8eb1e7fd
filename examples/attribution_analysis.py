#!/usr/bin/env python3
"""Attribute a predictor's coverage and mispredictions to load patterns.

Uses :mod:`repro.harness.attribution` to answer, for one workload:
which synthesis kernels (load-behaviour families) does each predictor
actually cover, and where do its mispredictions come from?  This is the
per-pattern analysis style of the paper's Sections IV-V.

Usage::

    python examples/attribution_analysis.py [workload]
"""

import sys

from repro.composite import CompositeConfig, CompositePredictor
from repro.harness.attribution import attribute
from repro.harness.formatting import frac, render_table
from repro.harness.runner import build_predictor
from repro.predictors import COMPONENT_NAMES
from repro.workloads import generate_trace

LENGTH = 20_000


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    trace = generate_trace(workload, LENGTH)

    print(f"=== per-component coverage by load pattern ({workload})\n")
    kernels = sorted(
        {inst.kernel for inst in trace if inst.is_load and inst.kernel}
    )
    rows = []
    for name in COMPONENT_NAMES:
        alone = build_predictor(
            {"kind": "component", "name": name, "entries": 1024}
        )
        attribution = attribute(trace, alone)
        coverage = attribution.coverage_by_kernel()
        rows.append(
            [name.upper()] + [frac(coverage.get(k, 0.0)) for k in kernels]
        )
    print(render_table(["predictor"] + kernels, rows))

    print("\n=== composite misprediction sources\n")
    composite = CompositePredictor(
        CompositeConfig(epoch_instructions=LENGTH // 12).homogeneous(256)
    )
    attribution = attribute(trace, composite)
    top = attribution.top_mispredictors(8)
    if top:
        print(render_table(
            ["kernel", "component", "mispredictions"],
            [[k, c, n] for (k, c), n in top],
        ))
    else:
        print("no mispredictions recorded")
    print(f"\ncomposite coverage {attribution.result.coverage:.1%}, "
          f"accuracy {attribution.result.accuracy:.2%}")


if __name__ == "__main__":
    main()
