"""Runnable wrapper for the simulator-core micro-benchmark suite.

Equivalent to ``repro-lvp bench``::

    python benchmarks/perf/microbench.py [OUTPUT] [--quick]

Writes ``BENCH_simcore.json`` (or OUTPUT) and prints the payload.  See
:mod:`repro.harness.microbench` for the benchmark definitions and the
median-of-N methodology.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common.atomicfile import atomic_write_json
from repro.harness.microbench import run_benchmarks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="BENCH_simcore.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--length", type=int, default=20000)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    payload = run_benchmarks(
        length=args.length,
        repeats=args.repeats,
        quick=args.quick,
        progress=lambda name: print(f"bench: {name} ...", file=sys.stderr),
    )
    atomic_write_json(args.output, payload)
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
