#!/usr/bin/env python3
"""Mini design-space exploration: components vs composite vs optimizations.

Reproduces, on a couple of workloads, the arc of the paper's Section V:
individual predictors first (Figure 3), then the plain composite
(Figure 5), then the filters (Figures 6-9).

Usage::

    python examples/design_space.py [entries_per_component]
"""

import sys
from dataclasses import replace

from repro.composite import CompositeConfig
from repro.harness.formatting import pct, render_table
from repro.harness.runner import build_predictor
from repro.pipeline import simulate
from repro.predictors import COMPONENT_NAMES
from repro.workloads import generate_trace

WORKLOADS = ("mcf", "sunspider", "linpack")
LENGTH = 20_000


def average_speedup(spec: dict) -> float:
    total = 0.0
    for name in WORKLOADS:
        trace = generate_trace(name, LENGTH)
        baseline = simulate(trace)
        result = simulate(trace, build_predictor(spec))
        total += result.speedup_over(baseline)
    return total / len(WORKLOADS)


def main() -> None:
    per = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    epoch = LENGTH // 25
    rows = []

    print(f"workloads: {', '.join(WORKLOADS)} ({LENGTH} instructions each)")
    print(f"entries per component: {per}\n")

    for name in COMPONENT_NAMES:
        gain = average_speedup(
            {"kind": "component", "name": name, "entries": 4 * per}
        )
        rows.append([f"{name.upper()} alone (4x entries)", pct(gain)])

    base = CompositeConfig(epoch_instructions=epoch).homogeneous(per)
    variants = {
        "composite (no filters)": base.plain(),
        "+ PC-AM": replace(base.plain(), accuracy_monitor="pc-am"),
        "+ smart training": replace(base.plain(), smart_training=True),
        "+ table fusion": replace(base.plain(), table_fusion=True),
        "all optimizations": base,
    }
    for label, config in variants.items():
        gain = average_speedup({"kind": "composite", "config": config})
        rows.append([label, pct(gain)])

    print(render_table(["design", "avg speedup"], rows))


if __name__ == "__main__":
    main()
