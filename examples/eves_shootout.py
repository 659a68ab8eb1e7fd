#!/usr/bin/env python3
"""Composite vs EVES, the paper's Figures 11/12 in miniature.

Compares the 9.6KB composite against EVES at 8KB and 32KB on a handful
of workloads, reporting per-workload speedup and coverage plus the
averages the paper's headline claims are about.

Usage::

    python examples/eves_shootout.py [workload ...]
"""

import sys

from repro.composite import CompositeConfig, CompositePredictor
from repro.eves import eves_8kb, eves_32kb
from repro.harness.formatting import frac, pct, render_table
from repro.pipeline import simulate
from repro.workloads import generate_trace

LENGTH = 20_000


def main() -> None:
    workloads = sys.argv[1:] or ["mcf", "coremark", "sunspider", "linpack"]
    contenders = {
        "composite 9.6KB": lambda: CompositePredictor(
            CompositeConfig(epoch_instructions=LENGTH // 25).homogeneous(256)
        ),
        "eves 8KB": eves_8kb,
        "eves 32KB": eves_32kb,
    }

    rows = []
    sums = {label: [0.0, 0.0] for label in contenders}
    for workload in workloads:
        trace = generate_trace(workload, LENGTH)
        baseline = simulate(trace)
        cells = [workload]
        for label, factory in contenders.items():
            result = simulate(trace, factory())
            speedup = result.speedup_over(baseline)
            cells.append(f"{pct(speedup)} / {frac(result.coverage)}")
            sums[label][0] += speedup
            sums[label][1] += result.coverage
        rows.append(cells)

    n = len(workloads)
    rows.append(
        ["AVERAGE"] + [
            f"{pct(s / n)} / {frac(c / n)}" for s, c in sums.values()
        ]
    )
    print("speedup / coverage")
    print(render_table(["workload", *contenders], rows))
    print(
        "\nPaper headline: the 9.6KB composite delivers >2x the coverage "
        "of EVES (32KB)\nand >50% higher speedup (Figure 11)."
    )


if __name__ == "__main__":
    main()
