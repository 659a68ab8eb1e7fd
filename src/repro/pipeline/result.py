"""Simulation results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimResult:
    """Everything a single core-model run reports."""

    workload: str
    instructions: int
    cycles: int

    loads: int = 0
    predictable_loads: int = 0
    predicted_loads: int = 0          # used (forwarded) predictions
    correct_predictions: int = 0
    value_mispredictions: int = 0     # used & wrong -> pipeline flush
    dropped_probe_misses: int = 0     # address predictions lost to L1D miss
    dropped_store_conflicts: int = 0  # PAQ probes squashed by STQ CAM hits
    memory_order_violations: int = 0  # store-set speculation flushes
    dropped_queue_full: int = 0       # predictions lost to full PAQ/VPE
    paq_probes: int = 0               # speculative D-cache probes issued

    branch_mispredictions: int = 0
    l1d_miss_rate: float = 0.0
    predictor_storage_bits: int = 0

    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def coverage(self) -> float:
        """Used predictions / predictable loads (the paper's coverage)."""
        if not self.predictable_loads:
            return 0.0
        return self.predicted_loads / self.predictable_loads

    @property
    def accuracy(self) -> float:
        """Correct / used predictions (0.0 when nothing was predicted)."""
        if not self.predicted_loads:
            return 0.0
        return self.correct_predictions / self.predicted_loads

    @property
    def branch_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredictions / self.instructions

    def speedup_over(self, baseline: "SimResult") -> float:
        """Relative IPC improvement vs a baseline run, e.g. 0.05 = +5%."""
        if baseline.instructions != self.instructions:
            raise ValueError(
                "speedup requires runs over the same trace: "
                f"{baseline.instructions} vs {self.instructions} instructions"
            )
        if not self.cycles:
            return 0.0
        return baseline.cycles / self.cycles - 1.0
