"""Synthetic workload generation.

The paper evaluates on SPEC2K/SPEC2K6/EEMBC plus JavaScript, browser,
and media workloads (Table II) -- 100M-instruction SimPoints of ARM
binaries run on a proprietary simulator.  Neither the traces nor the
simulator are releasable, so this package synthesizes instruction
traces that exercise the same load value/address occurrence patterns
the paper studies:

* **Pattern-1** (PC correlates with value): constant-pool loads,
  memset-then-scan loops (the paper's Listing 1);
* **Pattern-2** (PC correlates with address): strided array walks,
  stack frames, gather index streams;
* **Pattern-3** (context-dependent): periodic value patterns keyed to
  branch history, call-site-dependent addresses, pointer chasing,
  genuinely random accesses.

Each of the 85 workload names of the paper's Figure 12 maps to a
family profile (kernel mix + parameter ranges) plus a per-name seed,
giving a heterogeneous population whose aggregate behaviour mirrors
the benchmark suite's diversity.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.builder": ("ProgramBuilder",),
    "repro.workloads.generator": ("generate_trace", "generate_suite"),
    "repro.workloads.listing1": ("listing1_trace",),
    "repro.workloads.profiles": (
        "ALL_WORKLOADS", "FAMILIES", "WORKLOAD_FAMILY", "WorkloadProfile",
        "profile_for",
    ),
})

__all__ = [
    "ALL_WORKLOADS",
    "FAMILIES",
    "ProgramBuilder",
    "WORKLOAD_FAMILY",
    "WorkloadProfile",
    "generate_suite",
    "generate_trace",
    "listing1_trace",
    "profile_for",
]
