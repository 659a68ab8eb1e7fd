"""The paper's Listing 1 microbenchmark, verbatim.

.. code-block:: c

    for (o = 0; o < M; o++) {
        memset(A, 0, N * sizeof(*A));
        for (i = 0; i < N; i++) {
            a += A[i];                 // the studied load, line 5
        }
    }

Table V of the paper reports, for each predictor and several outer
iterations ``o``, how many inner-loop loads must complete before the
predictor starts predicting.  :func:`listing1_trace` produces exactly
this loop nest (via :class:`MemsetScanKernel`, which implements one
outer iteration) so the Table V experiment can replay it.
"""

from __future__ import annotations

from repro.common.rng import DeterministicRng
from repro.isa.trace import Trace
from repro.workloads.builder import ProgramBuilder
from repro.workloads.kernels import MemsetScanKernel


def listing1_trace(
    outer_m: int = 32, inner_n: int = 16, elem_size: int = 8, seed: int = 0
) -> Trace:
    """Generate the Listing-1 loop nest trace.

    Defaults mirror the paper's walkthrough (N = 16 array elements).
    Returns a trace whose metadata records the scan-load PC so
    experiments can single it out.
    """
    rng = DeterministicRng(seed, "listing1")
    builder = ProgramBuilder(rng)
    kernel = MemsetScanKernel(builder, inner_n=inner_n, elem_size=elem_size)
    initial_memory = builder.memory.copy()
    instructions: list = []
    for _ in range(outer_m):
        kernel.emit(instructions, budget=0)  # one outer iteration per call
    trace = Trace(
        name="listing1",
        instructions=instructions,
        seed=seed,
        metadata={
            "outer_m": outer_m,
            "inner_n": inner_n,
            "scan_load_pc": kernel.scan_code,
            "elem_size": elem_size,
        },
        initial_memory=initial_memory,
    )
    # Pack the columnar view up front, like generator-produced traces.
    trace.pack()
    return trace
