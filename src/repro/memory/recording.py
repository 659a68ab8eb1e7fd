"""The trace-determined memory hierarchy, recorded once per trace and replayed.

With the paper's defaults no value prediction ever changes the caches:
a PAQ probe reads the L1D without allocating and step 5 of Figure 1
(prefetch on a probe miss) is off.  The core model forwards every load
to an 8-byte word an earlier store wrote, whatever the timing, and
commits every store.  So each hierarchy call the core loop makes --
an instruction fetch when the fetch block changes, a demand load that
is not forwarded, a store at commit -- comes in program order with
arguments taken from the trace alone, and every cache, TLB and
prefetcher state is a pure function of the trace, the
:class:`~repro.memory.hierarchy.HierarchyConfig` and whether the L3 was
warmed.

:func:`hierarchy_recording` makes those calls once, in one pass over
the packed columns through the unchanged :class:`MemoryHierarchy`
methods, and keeps what a run reads back:

* each call's latency, in call order (a call's *ordinal* is its index
  in that order);
* the L1D residency of every block, as the ordinals at which it was
  filled and evicted, logged at :meth:`Cache._fill`, so a PAQ probe at
  any point of the run is a bisect;
* the final cache, TLB and prefetcher counters.

:class:`HierarchyReplay` serves a run from a recording through the
four calls the core loop makes (``fetch_latency``, ``load_latency``,
``store_latency``, ``probe_l1d``).  A same-block refetch after a flush
is not a call at all: it hits the L1I's most-recently-used way, which
changes no state, and the core loop counts it into the L1I statistics
itself.

Recordings are memoized per trace (:mod:`repro.common.tracememo`)
under ``(hierarchy config, warm_l3)``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.common.bits import bit_length_for
from repro.common.tracememo import trace_memo
from repro.isa.instruction import OP_LOAD, OP_STORE
from repro.isa.trace import Trace
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy


def warm_l3(hierarchy: MemoryHierarchy, trace: Trace) -> None:
    """Install every data block ``trace`` references into the L3."""
    l3 = hierarchy.l3
    block = hierarchy.config.l3.block_bytes
    seen: set[int] = set()
    cols = trace.pack()
    ops = cols.op
    addrs = cols.addr
    fill = l3.fill
    for i in range(len(cols)):
        op = ops[i]
        if op == OP_LOAD or op == OP_STORE:
            addr = addrs[i]
            blk = addr // block
            if blk not in seen:
                seen.add(blk)
                fill(addr)


class HierarchyRecording:
    """One trace's hierarchy calls under one configuration.

    ``latencies[k]`` is the latency the ``k``-th call returned.
    ``residency`` maps an L1D block number (address >> block offset
    bits) to the ordinals at which the block entered and left the L1D,
    alternating and ascending: the block is resident once ``k`` calls
    are done exactly when an odd number of them are ``<= k``.
    ``counters`` is :meth:`MemoryHierarchy.counters` after the last
    call.
    """

    __slots__ = ("config", "latencies", "residency", "counters")

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.latencies = array("I")
        self.residency: dict[int, list[int]] = {}
        self.counters: dict = {}


class HierarchyReplay:
    """A run's view of a :class:`HierarchyRecording`.

    Answers the core loop's four hierarchy calls in the order they were
    recorded; ``ordinal`` counts the calls answered so far.
    """

    __slots__ = (
        "ordinal", "_latencies", "_residency", "_offset_bits",
        "_l1d_hit", "_counters",
    )

    def __init__(self, recording: HierarchyRecording) -> None:
        config = recording.config
        self.ordinal = 0
        self._latencies = recording.latencies
        self._residency = recording.residency
        self._offset_bits = bit_length_for(config.l1d.block_bytes)
        self._l1d_hit = config.l1d.hit_latency
        self._counters = recording.counters

    def fetch_latency(self, pc: int) -> int:
        ordinal = self.ordinal
        self.ordinal = ordinal + 1
        return self._latencies[ordinal]

    def load_latency(self, pc: int, addr: int) -> int:
        ordinal = self.ordinal
        self.ordinal = ordinal + 1
        return self._latencies[ordinal]

    def store_latency(self, addr: int) -> int:
        ordinal = self.ordinal
        self.ordinal = ordinal + 1
        return self._latencies[ordinal]

    def probe_l1d(self, addr: int) -> tuple[bool, int]:
        """The L1D's answer to a non-allocating probe after the calls
        answered so far."""
        bounds = self._residency.get(addr >> self._offset_bits)
        if bounds is None:
            return False, self._l1d_hit
        return bisect_right(bounds, self.ordinal) & 1 == 1, self._l1d_hit

    def counters(self) -> dict:
        return self._counters


def hierarchy_recording(
    trace: Trace,
    config: HierarchyConfig,
    warm: bool,
    interrupt=None,
    interrupt_interval: int = 1024,
) -> HierarchyRecording:
    """The memoized hierarchy recording of ``trace``, recording it if
    needed.

    ``warm`` says whether the L3 is warmed with the trace's data blocks
    first.  A recording pass polls ``interrupt`` every
    ``interrupt_interval`` instructions exactly as the core loop does
    (raising :class:`repro.pipeline.core.SimulationInterrupted`), so a
    cell deadline still fires on a cold trace; an interrupted pass
    memoizes nothing.
    """
    return trace_memo(
        trace, ("hierarchy", config, warm),
        lambda: _record(trace, config, warm, interrupt, interrupt_interval),
    )


def _record(trace, config, warm, interrupt, interrupt_interval):
    from repro.pipeline.core import SimulationInterrupted

    hierarchy = MemoryHierarchy(config)
    if warm:
        warm_l3(hierarchy, trace)
    recording = HierarchyRecording(config)
    residency = recording.residency
    # ``calls`` counts the calls made so far, including the one in
    # progress: a block an access fills (or evicts) is resident (or
    # gone) once that call is done.
    calls = 0
    l1d = hierarchy.l1d
    l1d_sets = l1d._sets
    assoc = l1d.config.associativity
    index_bits = l1d._index_bits
    fill = l1d._fill

    def logged_fill(index: int, tag: int, dirty: int) -> None:
        ways = l1d_sets[index]
        if len(ways) >= assoc:
            residency[ways[-1][0] << index_bits | index].append(calls)
        residency.setdefault(tag << index_bits | index, []).append(calls)
        fill(index, tag, dirty)

    l1d._fill = logged_fill

    cols = trace.pack()
    pcs = cols.pc
    ops = cols.op
    addrs = cols.addr
    sizes = cols.size
    latency_append = recording.latencies.append
    fetch_latency = hierarchy.fetch_latency
    load_latency = hierarchy.load_latency
    store_latency = hierarchy.store_latency
    block_shift = bit_length_for(config.l1i.block_bytes)
    # 8-byte words some earlier store wrote: the core forwards a load
    # touching any of them instead of asking the hierarchy.
    written: set[int] = set()
    current_block = -1

    name = trace.name
    next_check = interrupt_interval if interrupt else None
    for i in range(len(cols)):
        if next_check is not None and i + 1 >= next_check:
            next_check += interrupt_interval
            if interrupt(i + 1):
                raise SimulationInterrupted(name, i + 1)
        pc = pcs[i]
        block = pc >> block_shift
        if block != current_block:
            current_block = block
            calls += 1
            latency_append(fetch_latency(pc))
        op = ops[i]
        if op == OP_LOAD:
            addr = addrs[i]
            words = range(addr >> 3, ((addr + sizes[i] - 1) >> 3) + 1)
            if written.isdisjoint(words):
                calls += 1
                latency_append(load_latency(pc, addr))
        elif op == OP_STORE:
            addr = addrs[i]
            written.update(range(addr >> 3, ((addr + sizes[i] - 1) >> 3) + 1))
            calls += 1
            latency_append(store_latency(addr))

    recording.counters = hierarchy.counters()
    return recording
