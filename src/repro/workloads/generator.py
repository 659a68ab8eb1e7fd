"""Trace generation: turn a workload profile into a dynamic trace."""

from __future__ import annotations

import os
from functools import lru_cache

from repro.common.rng import DeterministicRng
from repro.isa.columns import ColumnSink
from repro.isa.trace import Trace
from repro.workloads import store as trace_store
from repro.workloads.builder import ProgramBuilder
from repro.workloads.kernels import KERNEL_CLASSES, MemsetScanKernel
from repro.workloads.profiles import profile_for

#: Entries kept by the per-process memoization caches -- this trace
#: cache and the baseline-result cache in :mod:`repro.harness.runner`
#: share the one knob.  Override with the ``REPRO_CACHE_SIZE``
#: environment variable (set before first import) when sweeping more
#: than 256 distinct (workload, length, seed) triples per process.
CACHE_SIZE = int(os.environ.get("REPRO_CACHE_SIZE", "256"))

#: Version of the generation logic, part of the on-disk trace store's
#: content-addressed key (:mod:`repro.workloads.store`).  Bump whenever
#: kernels, profiles, or the interleaving scheduler change the emitted
#: instruction stream -- stale store entries then stop matching instead
#: of silently serving old traces.
GENERATOR_VERSION = 1


def _build_listing1(length: int, seed: int) -> Trace:
    """The paper's Listing-1 loop nest, sized by instruction budget.

    :func:`repro.workloads.listing1.listing1_trace` sizes the trace by
    *outer iterations* (what Table V's walkthrough needs); sweep cells
    and ``workload_trace`` size by instruction count, so this builder
    emits whole outer iterations until ``length`` is reached and
    truncates.  Defaults mirror the walkthrough (N = 16 elements).
    """
    rng = DeterministicRng(seed, "listing1")
    builder = ProgramBuilder(rng)
    kernel = MemsetScanKernel(builder, inner_n=16, elem_size=8)
    initial_memory = builder.memory.copy()
    sink = ColumnSink()
    while len(sink) < length:
        kernel.emit(sink, budget=0)  # one outer iteration per call
    return Trace(
        name="listing1",
        columns=sink.finish(length),
        seed=seed,
        metadata={
            "family": "micro",
            "length": length,
            "inner_n": 16,
            "elem_size": 8,
            "scan_load_pc": kernel.scan_code,
        },
        initial_memory=initial_memory,
    )


#: Named workloads built directly (no profile): the paper's Listing-1
#: micro-benchmark.  Kept out of :data:`repro.workloads.ALL_WORKLOADS`
#: so figure sweeps over "the 85 workloads" are unchanged, but
#: resolvable by name through :func:`generate_trace` / ``repro-lvp``.
SPECIAL_WORKLOAD_BUILDERS = {"listing1": _build_listing1}
SPECIAL_WORKLOADS = tuple(sorted(SPECIAL_WORKLOAD_BUILDERS))


def generate_trace(name: str, length: int = 50_000, seed: int = 0) -> Trace:
    """Generate (and memoize) the trace for one named workload.

    Kernels are interleaved burst-by-burst according to the profile's
    weights, modelling phase-interleaved program behaviour, and emit
    straight into packed columns (:class:`repro.isa.columns.ColumnSink`):
    no :class:`~repro.isa.instruction.Instruction` object is built, and
    ``trace.instructions`` materializes the object view only when a
    caller asks for it.  The result
    is deterministic in ``(name, length, seed)`` and cached per process
    (:data:`CACHE_SIZE` entries) because experiments re-run the same
    workload against many predictor configurations.

    Three caching layers stack here, checked cheapest-first: the
    in-process LRU memo, then the on-disk trace store (when
    ``REPRO_TRACE_CACHE_DIR`` is set -- loading packed columns is ~an
    order of magnitude cheaper than regenerating), then generation.  A
    fresh generation is written back to the store so sibling processes
    (``--workers N`` sweeps) load instead of regenerate.
    """
    return _generate_cached(name, length, seed)


@lru_cache(maxsize=CACHE_SIZE)
def _generate_cached(name: str, length: int, seed: int) -> Trace:
    store = trace_store.active_store()
    if store is not None:
        cached = store.load(name, length, seed, GENERATOR_VERSION)
        if cached is not None:
            return cached
    trace = _generate(name, length, seed)
    if store is not None:
        store.save(trace, length, GENERATOR_VERSION)
    return trace


def ensure_stored(name: str, length: int, seed: int = 0) -> bool:
    """Make sure the trace for this triple is in the on-disk store.

    Returns ``True`` when a store is active and the entry exists
    afterwards (already present or written now).  Used by the resilient
    harness to pre-warm the store once in the supervisor before fanning
    a sweep out to worker processes.
    """
    store = trace_store.active_store()
    if store is None:
        return False
    if store.entry_path(name, length, seed, GENERATOR_VERSION).exists():
        return True
    trace = generate_trace(name, length, seed)
    if not store.entry_path(name, length, seed, GENERATOR_VERSION).exists():
        # The memo can predate the store: if the trace was generated
        # before REPRO_TRACE_CACHE_DIR was exported, generate_trace
        # hits the in-process cache and never reaches the save path.
        # Write the entry explicitly so pre-warming works regardless
        # of when the store appeared.
        store.save(trace, length, GENERATOR_VERSION)
    return store.entry_path(name, length, seed, GENERATOR_VERSION).exists()


def clear_trace_caches() -> None:
    """Reset every trace-caching layer owned by this module.

    Drops the in-process generation memo *and* the ambient trace-store
    handle (its per-process stats with it).  On-disk entries are left
    alone -- they are content addressed, so a stale handle is the only
    process-local state.  :func:`repro.harness.runner.clear_caches`
    calls this so "clear the caches" means every layer at once.
    """
    _generate_cached.cache_clear()
    trace_store.reset_active_store()


def _generate(name: str, length: int, seed: int) -> Trace:
    special = SPECIAL_WORKLOAD_BUILDERS.get(name)
    if special is not None:
        return special(length, seed)
    profile = profile_for(name, seed)
    rng = DeterministicRng(seed, f"trace/{name}")
    builder = ProgramBuilder(rng.derive("builder"))

    # Each kernel type is instantiated as several static *copies*
    # (distinct PCs, registers, and data regions), proportional to its
    # weight.  Real programs have thousands of static loads; the copies
    # give predictor tables realistic pressure, which is what makes the
    # paper's size-dependent effects (Figure 3's knee, smart training,
    # table fusion) observable.
    kernels = []
    weights = []
    for kernel_name, weight in profile.kernel_weights.items():
        if weight <= 0:
            continue
        cls = KERNEL_CLASSES[kernel_name]
        params = profile.kernel_params.get(kernel_name, {})
        copies = min(1 + round(weight * 12), cls.max_copies)
        for _ in range(copies):
            kernels.append(cls(builder, **params))
            weights.append(weight / copies)
    # Snapshot memory after kernel construction (pre-population) but
    # before any dynamic emission: this is the machine's initial memory.
    initial_memory = builder.memory.copy()
    # Deficit scheduling: kernels emit bursts of very different sizes
    # (a Listing-1 outer iteration is inherently one burst), so picking
    # by weight alone would skew instruction shares.  Instead, always
    # pick among the kernels furthest *below* their weight share, with
    # a little randomness so the interleaving is not periodic.
    sink = ColumnSink()
    pick = rng.derive("mix")
    emitted = [0] * len(kernels)
    while len(sink) < length:
        order = sorted(
            range(len(kernels)), key=lambda i: emitted[i] / weights[i]
        )
        candidates = order[: min(3, len(order))]
        chosen = candidates[pick.randint(0, len(candidates))]
        budget = pick.randint(80, 400)
        emitted[chosen] += kernels[chosen].emit(sink, budget)

    return Trace(
        name=name,
        columns=sink.finish(length),
        seed=seed,
        metadata={"family": profile.family, "length": length},
        initial_memory=initial_memory,
    )


def generate_suite(
    names, length: int = 50_000, seed: int = 0
) -> dict[str, Trace]:
    """Generate traces for several workloads, keyed by name."""
    return {name: generate_trace(name, length, seed) for name in names}
