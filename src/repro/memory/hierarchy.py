"""The three-level cache hierarchy facade used by the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import Cache, CacheConfig
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.tlb import Tlb


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache/TLB/memory parameters; defaults per Table III."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 64 * 1024, 4, 64, 1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 64 * 1024, 4, 64, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * 1024, 8, 128, 16)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * 1024 * 1024, 16, 128, 32)
    )
    memory_latency: int = 200
    tlb_entries: int = 512
    tlb_associativity: int = 8
    tlb_walk_latency: int = 20
    prefetch_enabled: bool = True
    prefetch_degree: int = 2


class MemoryHierarchy:
    """Latency oracle for instruction fetches, loads, and stores."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.l1i = Cache(cfg.l1i)
        self.l1d = Cache(cfg.l1d)
        self.l2 = Cache(cfg.l2)
        self.l3 = Cache(cfg.l3)
        self.tlb = Tlb(cfg.tlb_entries, cfg.tlb_associativity, cfg.tlb_walk_latency)
        self.prefetcher = StridePrefetcher(degree=cfg.prefetch_degree)
        # Second-level stride prefetcher (Table III: "stride-based
        # prefetchers", plural): trained on the L1D miss stream, deeper
        # lookahead, fills L2/L3.
        self.l2_prefetcher = StridePrefetcher(
            entries=128, degree=2 * cfg.prefetch_degree,
            block_bytes=cfg.l2.block_bytes,
        )

    # ------------------------------------------------------------------
    # Demand paths
    # ------------------------------------------------------------------

    def fetch_latency(self, pc: int) -> int:
        """Instruction-fetch latency for one cache block."""
        if self.l1i.access(pc):
            return self.config.l1i.hit_latency
        return self.config.l1i.hit_latency + self._inner_fill(pc)

    def load_latency(self, pc: int, addr: int) -> int:
        """Demand-load latency, including TLB and prefetch training."""
        latency = self.tlb.access(addr) + self.config.l1d.hit_latency
        if not self.l1d.access(addr):
            latency += self._inner_fill(addr)
            if self.config.prefetch_enabled:
                # The L2 prefetcher sees only the L1D miss stream.
                for block in self.l2_prefetcher.observe(pc, addr):
                    if not self.l2.lookup(block):
                        self.l2.fill(block, from_prefetch=True)
        if self.config.prefetch_enabled:
            for block in self.prefetcher.observe(pc, addr):
                self._prefetch_fill(block)
        return latency

    def store_latency(self, addr: int) -> int:
        """Store commit latency (write-allocate into L1D)."""
        latency = self.tlb.access(addr) + self.config.l1d.hit_latency
        if not self.l1d.access(addr, is_write=True):
            latency += self._inner_fill(addr)
        return latency

    def probe_l1d(self, addr: int) -> tuple[bool, int]:
        """Non-allocating PAQ probe of the L1D (step 3 in Figure 1).

        Returns ``(hit, latency)``.  Per the paper, a probe miss does
        *not* fetch the line (the optional prefetch, step 5, is a
        separate knob owned by the pipeline and disabled by default).
        """
        return self.l1d.lookup(addr), self.config.l1d.hit_latency

    def counters(self) -> dict:
        """The run's statistics: ``caches`` maps each level to its
        :class:`CacheStats`, plus the TLB hit rate and the prefetches
        both prefetchers issued."""
        return {
            "caches": {
                level: cache.stats
                for level, cache in (
                    ("l1i", self.l1i), ("l1d", self.l1d),
                    ("l2", self.l2), ("l3", self.l3),
                )
            },
            "tlb_hit_rate": self.tlb.hit_rate,
            "prefetches_issued": self.prefetcher.issued
            + self.l2_prefetcher.issued,
        }

    # ------------------------------------------------------------------
    # Fill paths
    # ------------------------------------------------------------------

    def _inner_fill(self, addr: int) -> int:
        """Charge the L2/L3/memory path after an L1 miss and fill inward."""
        if self.l2.access(addr):
            return self.config.l2.hit_latency
        if self.l3.access(addr):
            return self.config.l2.hit_latency + self.config.l3.hit_latency
        return (
            self.config.l2.hit_latency
            + self.config.l3.hit_latency
            + self.config.memory_latency
        )

    def _prefetch_fill(self, addr: int) -> None:
        """Install a prefetched block into L1D (and inner levels)."""
        if not self.l1d.lookup(addr):
            self.l1d.fill(addr, from_prefetch=True)
            if not self.l2.lookup(addr):
                self.l2.fill(addr, from_prefetch=True)
