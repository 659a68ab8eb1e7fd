"""Core configuration (Table III of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import OpClass
from repro.memory.hierarchy import HierarchyConfig

#: Execution latencies by operation class (cycles from issue to
#: result).  Loads are excluded: their latency comes from the memory
#: hierarchy.  Values approximate Skylake.
DEFAULT_LATENCIES: dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 12,
    OpClass.FP_ALU: 4,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 13,
    OpClass.STORE: 1,          # address/data ready; commit does the write
    OpClass.BRANCH_COND: 1,
    OpClass.BRANCH_DIRECT: 1,
    OpClass.BRANCH_INDIRECT: 1,
    OpClass.BRANCH_RETURN: 1,
    OpClass.NOP: 1,
}


#: The ``memory_dependence`` models: the store-set predictor and the
#: perfect-disambiguation oracle.
MEMORY_DEPENDENCE_MODELS = ("store-sets", "perfect")


def _check_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(
            f"CoreConfig.{name} must be an integer >= {least}, got {value!r}"
        )


@dataclass(frozen=True)
class CoreConfig:
    """Skylake-like baseline core (Table III)."""

    fetch_width: int = 4          # fetch through rename
    issue_width: int = 8          # issue through commit
    commit_width: int = 8
    ls_lanes: int = 2             # execution lanes for loads/stores
    generic_lanes: int = 6

    rob_entries: int = 224
    iq_entries: int = 97
    ldq_entries: int = 72
    stq_entries: int = 56

    #: Cycles from fetch to earliest possible execute (paper: 13).
    #: Split as front-end depth (fetch..allocate) + 1 issue + 1 RF read;
    #: execution begins the next cycle.
    fetch_to_execute: int = 13

    #: Extra cycles after a resolving branch/value mispredict before
    #: fetch restarts at the recovery address.
    redirect_penalty: int = 1

    #: Cycles a predicted address waits in the PAQ for a load-pipe
    #: bubble before probing the D-cache.
    paq_queue_delay: int = 3

    #: Predicted Address Queue capacity; a full PAQ drops new address
    #: predictions (entries are held from fetch until the probe
    #: returns).
    paq_entries: int = 16

    #: Value Prediction Engine capacity: speculative values for
    #: in-flight predicted loads (held from fetch until the load
    #: validates).  A full VPE drops new predictions.
    vpe_entries: int = 64

    #: Generate a prefetch when a PAQ probe misses (paper step 5,
    #: disabled in their evaluation and ours).
    paq_prefetch_on_miss: bool = False

    #: Store-to-load forwarding latency (cycles after store data ready).
    store_forward_latency: int = 1

    ras_entries: int = 16

    #: Memory disambiguation: "store-sets" models the Alpha-21264-like
    #: dependence predictor of the baseline (speculative loads, memory-
    #: order violation flushes, learned waits); "perfect" is an oracle
    #: that always forwards without violations.
    memory_dependence: str = "store-sets"
    ssit_entries: int = 2048
    lfst_entries: int = 256

    #: Pre-fill the L3 with every data block the trace references
    #: before timing begins.  Standard simulator warm-up: our traces
    #: are 10^3-10^4x shorter than the paper's SimPoints, so without it
    #: compulsory misses to main memory dominate every working set
    #: larger than the trace -- a pure trace-length artifact.  L1/L2
    #: still warm naturally during the run.
    warm_l3: bool = True

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    latencies: dict = field(default_factory=lambda: dict(DEFAULT_LATENCIES))

    def __post_init__(self) -> None:
        for name in (
            "fetch_width", "issue_width", "commit_width", "ls_lanes",
            "generic_lanes", "rob_entries", "iq_entries", "ldq_entries",
            "stq_entries", "paq_entries", "vpe_entries", "ras_entries",
        ):
            _check_int(name, getattr(self, name), 1)
        # A non-negative front-end depth: fetch, dispatch, issue, execute.
        _check_int("fetch_to_execute", self.fetch_to_execute, 2)
        for name in (
            "redirect_penalty", "paq_queue_delay", "store_forward_latency",
        ):
            _check_int(name, getattr(self, name), 0)
        if self.memory_dependence not in MEMORY_DEPENDENCE_MODELS:
            raise ValueError(
                f"CoreConfig.memory_dependence must be one of "
                f"{', '.join(map(repr, MEMORY_DEPENDENCE_MODELS))}, "
                f"got {self.memory_dependence!r}"
            )
        for name in ("ssit_entries", "lfst_entries"):
            value = getattr(self, name)
            _check_int(name, value, 1)
            if value & (value - 1):
                raise ValueError(
                    f"CoreConfig.{name} must be a power of two, got {value}"
                )
        missing = [
            op.name for op in OpClass
            if op is not OpClass.LOAD and op not in self.latencies
        ]
        if missing:
            raise ValueError(
                f"CoreConfig.latencies has no latency for {', '.join(missing)}"
            )
        for op, latency in self.latencies.items():
            _check_int(f"latencies[{OpClass(op).name}]", latency, 1)

    @property
    def frontend_depth(self) -> int:
        """Fetch-to-dispatch depth implied by ``fetch_to_execute``.

        An unobstructed instruction fetched at cycle ``f`` dispatches at
        ``f + frontend_depth``, becomes issue-eligible one cycle later,
        and executes the cycle after issue -- totalling
        ``fetch_to_execute`` cycles from fetch to execute.
        """
        return self.fetch_to_execute - 2
