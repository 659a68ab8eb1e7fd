#!/usr/bin/env python3
"""Build a custom workload from kernels and evaluate predictors on it.

Shows the extensibility path: compose your own instruction stream from
the kernel library, which emits straight into packed trace columns (or
from hand-built :class:`repro.isa.Instruction` lists, which
``Trace(name, instructions)`` packs), and run any predictor over it --
the same flow a user would follow to study a load pattern the built-in
suite lacks.
"""

from repro.common.rng import DeterministicRng
from repro.composite import CompositeConfig
from repro.harness.runner import build_predictor
from repro.isa.columns import ColumnSink
from repro.isa.trace import Trace
from repro.pipeline import simulate
from repro.workloads.builder import ProgramBuilder
from repro.workloads.kernels import (
    ChainedStrideKernel,
    ConstantPoolKernel,
    PeriodicPatternKernel,
)


def build_trace(length: int = 15_000) -> Trace:
    """A hand-mixed workload: constants + a CVP pattern + a load chain."""
    rng = DeterministicRng(2024, "custom")
    builder = ProgramBuilder(rng)
    kernels = [
        ConstantPoolKernel(builder, n_constants=6),
        PeriodicPatternKernel(builder, period=4),
        ChainedStrideKernel(builder, n_elems=256),
    ]
    initial_memory = builder.memory.copy()

    sink = ColumnSink()
    mix = rng.derive("mix")
    while len(sink) < length:
        kernel = kernels[mix.randint(0, len(kernels))]
        kernel.emit(sink, 300)
    return Trace("custom-mix", columns=sink.finish(length), seed=2024,
                 initial_memory=initial_memory)


def main() -> None:
    trace = build_trace()
    stats = trace.stats()
    print(f"custom trace: {stats.instructions} instructions, "
          f"{stats.loads} loads, {stats.unique_load_pcs} static loads")

    baseline = simulate(trace)
    print(f"baseline IPC {baseline.ipc:.3f}\n")

    contenders = {
        f"{name}-1k": {"kind": "component", "name": name, "entries": 1024}
        for name in ("lvp", "sap", "cvp")
    }
    contenders["composite-1k"] = {
        "kind": "composite",
        "config": CompositeConfig(epoch_instructions=600).homogeneous(256),
    }
    for label, spec in contenders.items():
        result = simulate(trace, build_predictor(spec))
        print(f"{label:13s} speedup {result.speedup_over(baseline):+7.2%}  "
              f"coverage {result.coverage:5.1%}  "
              f"accuracy {result.accuracy:.2%}")


if __name__ == "__main__":
    main()
