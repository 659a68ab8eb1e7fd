"""Memory hierarchy substrate (Table III of the paper).

Split 64KB 4-way L1s (1/2-cycle I/D), a private 512KB 8-way L2
(16 cycles), a shared 8MB 16-way L3 (32 cycles), 200-cycle main memory,
a 512-entry 8-way TLB, and per-PC stride prefetchers.

The hierarchy is a *timing* model: caches track tags and replacement
state, not data.  Data values come from the trace and from the
program-order :class:`~repro.memory.image.MemoryImage` that the pipeline
maintains to resolve predicted-address probes.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.cache": ("Cache", "CacheConfig", "CacheStats"),
    "repro.memory.hierarchy": ("HierarchyConfig", "MemoryHierarchy"),
    "repro.memory.image": ("MemoryImage",),
    "repro.memory.prefetcher": ("StridePrefetcher",),
    "repro.memory.tlb": ("Tlb",),
})

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "HierarchyConfig",
    "MemoryHierarchy",
    "MemoryImage",
    "StridePrefetcher",
    "Tlb",
]
