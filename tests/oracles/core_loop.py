"""The object-path timing loop: the oracle for ``CoreModel.run``.

:func:`run_objects` is the core model's pass restated over
``trace.instructions``: enum opclass tests, a register scoreboard
(where the model reads per-trace producer columns),
:class:`LaneScheduler` / :class:`WindowTracker` objects, and a live
branch unit driven branch by branch (``tests/oracles/branch.py``: its own history registers,
hashed by the scalar reference) instead of a replayed front-end
stream.  It shares the model's load helpers (``_load_complete``,
``_validate_load``) and its ``_finish``, so what it checks is the
loop: ordering, the inlined schedulers and windows, tick batching and
the front-end replay.  It
drives a live :class:`MemoryHierarchy` of its own on every block change,
refetches included, so it also checks the model's hierarchy replay.
``tests/test_columnar_equivalence.py`` requires its :class:`SimResult`
to equal ``CoreModel.run``'s bit for bit.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.branch.unit import BranchOutcome
from repro.common.bits import bit_length_for
from repro.common.rng import DeterministicRng
from repro.isa.instruction import NUM_ARCH_REGS, REG_NONE, Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.pipeline.core import CoreModel, SimulationInterrupted
from repro.pipeline.frontend import branch_stats
from repro.pipeline.memdep import StoreSetPredictor
from repro.pipeline.resources import WindowTracker
from repro.pipeline.result import SimResult
from repro.predictors.types import CONFIDENT

from oracles.branch import LiveBranchUnit


class LaneScheduler:
    """``k`` pipelined execution lanes.

    Each lane accepts one instruction per cycle.  ``acquire(ready)``
    returns the earliest cycle >= ``ready`` at which a lane can accept
    the instruction and books that slot.  Implemented as a min-heap of
    per-lane next-free cycles, the classic k-server model.
    """

    def __init__(self, lanes: int) -> None:
        if lanes <= 0:
            raise ValueError(f"need at least one lane, got {lanes}")
        self._free = [0] * lanes

    def acquire(self, ready: int) -> int:
        earliest = heapq.heappop(self._free)
        begin = max(ready, earliest)
        heapq.heappush(self._free, begin + 1)
        return begin


def fetch_branch(unit: LiveBranchUnit, inst: Instruction) -> BranchOutcome:
    """Predict one fetched branch instruction on ``unit``."""
    return unit.fetch(
        inst.pc, int(inst.op), inst.taken, inst.target, inst.is_call
    )


def resolve(
    unit: LiveBranchUnit, inst: Instruction, outcome: BranchOutcome
) -> None:
    """Train ``unit``'s predictors when ``inst`` executes."""
    unit.resolve_fields(inst.pc, inst.taken, inst.target, outcome)


def live_branch_unit(model: CoreModel) -> LiveBranchUnit:
    """A fresh branch unit with ``model``'s geometry and seed."""
    return LiveBranchUnit(
        model.tage_config, model.ittage_config,
        model.config.ras_entries, DeterministicRng(model.seed, "core"),
    )


def _warm_l3(hierarchy: MemoryHierarchy, trace: Trace) -> None:
    l3 = hierarchy.l3
    block = hierarchy.config.l3.block_bytes
    seen: set[int] = set()
    for inst in trace.instructions:
        if inst.op.is_memory:
            blk = inst.addr // block
            if blk not in seen:
                seen.add(blk)
                l3.fill(inst.addr)


def run_objects(
    model: CoreModel,
    trace: Trace,
    interrupt=None,
    interrupt_interval: int = 1024,
) -> SimResult:
    """Simulate ``trace`` on ``model`` one :class:`Instruction` at a time."""
    cfg = model.config
    predictor = model.predictor
    branch_unit = live_branch_unit(model)
    hierarchy = MemoryHierarchy(cfg.hierarchy)
    block_shift = bit_length_for(cfg.hierarchy.l1i.block_bytes)
    histories = branch_unit.histories
    l1d_hit = cfg.hierarchy.l1d.hit_latency
    depth = cfg.frontend_depth
    fetch_width = cfg.fetch_width
    commit_width = cfg.commit_width

    ls_lanes = LaneScheduler(cfg.ls_lanes)
    generic_lanes = LaneScheduler(cfg.generic_lanes)
    rob = WindowTracker(cfg.rob_entries)
    iq = WindowTracker(cfg.iq_entries)
    ldq = WindowTracker(cfg.ldq_entries)
    stq = WindowTracker(cfg.stq_entries)
    paq = WindowTracker(cfg.paq_entries)
    vpe = WindowTracker(cfg.vpe_entries)

    reg_avail = [0] * NUM_ARCH_REGS

    fetch_cycle = 0
    fetched_in_cycle = 0
    next_fetch_allowed = 0
    current_block = -1

    last_commit = 0
    committed_in_cycle = 0

    mem = (
        trace.initial_memory.copy()
        if isinstance(trace.initial_memory, MemoryImage)
        else MemoryImage()
    )
    pending_stores: deque[tuple[int, int, int, int]] = deque()
    store_info: dict[int, tuple[int, int, int]] = {}

    memdep = (
        StoreSetPredictor(cfg.ssit_entries, cfg.lfst_entries)
        if cfg.memory_dependence == "store-sets"
        else None
    )

    inflight_loads: dict[int, deque[int]] = {}

    # Heap of (complete_cycle, seq, decision, addr, size, value,
    # verdict mask).
    pending_updates: list = []
    update_seq = 0

    result = SimResult(workload=trace.name, instructions=len(trace), cycles=0)
    result.predictor_storage_bits = predictor.storage_bits()

    if cfg.warm_l3:
        _warm_l3(hierarchy, trace)

    instructions_done = 0
    next_interrupt_check = interrupt_interval if interrupt else None

    for inst in trace.instructions:
        if next_interrupt_check is not None:
            instructions_done += 1
            if instructions_done >= next_interrupt_check:
                next_interrupt_check += interrupt_interval
                if interrupt(instructions_done):
                    raise SimulationInterrupted(trace.name, instructions_done)
        op = inst.op

        # Fetch
        floor = next_fetch_allowed
        window_floor = max(
            rob.earliest_allocation() - depth,
            iq.earliest_allocation() - depth,
        )
        if op is OpClass.LOAD:
            window_floor = max(window_floor, ldq.earliest_allocation() - depth)
        elif op is OpClass.STORE:
            window_floor = max(window_floor, stq.earliest_allocation() - depth)
        floor = max(floor, window_floor)
        if fetch_cycle < floor:
            fetch_cycle = floor
            fetched_in_cycle = 0
        elif fetched_in_cycle >= fetch_width:
            fetch_cycle += 1
            fetched_in_cycle = 0
        block = inst.pc >> block_shift
        if block != current_block:
            current_block = block
            extra = hierarchy.fetch_latency(inst.pc) - cfg.hierarchy.l1i.hit_latency
            if extra > 0:
                fetch_cycle += extra
                fetched_in_cycle = 0
        fetch = fetch_cycle
        fetched_in_cycle += 1

        # Branch prediction / histories / value-predictor probe
        branch_outcome = None
        decision = None
        if op.is_branch:
            branch_outcome = fetch_branch(branch_unit, inst)
            if branch_outcome.fetch_bubble:
                fetch_cycle += branch_outcome.fetch_bubble
                fetched_in_cycle = 0
            elif inst.taken:
                fetched_in_cycle = fetch_width
        elif op is OpClass.LOAD:
            while pending_updates and pending_updates[0][0] <= fetch:
                _, _, d, a, s, v, c = heapq.heappop(pending_updates)
                predictor.validate_and_train(d, a, s, v, c)
            if inst.predictable:
                flights = inflight_loads.get(inst.pc)
                inflight = 0
                if flights:
                    while flights and flights[0] <= fetch:
                        flights.popleft()
                    inflight = len(flights)
                decision = predictor.predict(
                    inst.pc, -1, histories.direction, histories.path,
                    histories.load_path, inflight,
                )
            branch_unit.note_memory_op(inst.pc)
        elif op is OpClass.STORE:
            branch_unit.note_memory_op(inst.pc)

        dispatch = fetch + depth

        # Issue and execute
        ready = dispatch + 1
        for src in inst.srcs:
            avail = reg_avail[src]
            if avail > ready:
                ready = avail
        if op is OpClass.LOAD and memdep is not None:
            wait_until = memdep.load_wait_until(inst.pc)
            if wait_until > ready:
                ready = wait_until
        if op.is_memory:
            issue = ls_lanes.acquire(ready)
        else:
            issue = generic_lanes.acquire(ready)

        if op is OpClass.LOAD:
            complete, violation_store_pc, violation_ready = model._load_complete(
                inst.pc, inst.addr, inst.size, issue, hierarchy, store_info,
                memdep, cfg,
            )
            if violation_store_pc is not None:
                result.memory_order_violations += 1
                memdep.record_violation(inst.pc, violation_store_pc)
                redirect = violation_ready + cfg.redirect_penalty
                if redirect > next_fetch_allowed:
                    next_fetch_allowed = redirect
                current_block = -1
            flights = inflight_loads.get(inst.pc)
            if flights is None:
                flights = inflight_loads[inst.pc] = deque(maxlen=cfg.ldq_entries)
            flights.append(complete)
            result.loads += 1
            if inst.predictable:
                result.predictable_loads += 1
        elif op is OpClass.STORE:
            complete = issue + cfg.latencies[OpClass.STORE]
            word_lo = inst.addr >> 3
            word_hi = (inst.addr + inst.size - 1) >> 3
            for word in range(word_lo, word_hi + 1):
                store_info[word] = (issue, complete, inst.pc)
            if memdep is not None:
                memdep.note_store(inst.pc, complete)
        else:
            complete = issue + cfg.latencies[op]

        # Branch resolution
        if branch_outcome is not None:
            resolve(branch_unit, inst, branch_outcome)
            if branch_outcome.mispredicted:
                result.branch_mispredictions += 1
                redirect = complete + cfg.redirect_penalty
                if redirect > next_fetch_allowed:
                    next_fetch_allowed = redirect
                current_block = -1

        # Value-prediction validation and training
        if op is OpClass.LOAD:
            writeback = complete
            if decision is not None:
                correct = 0
                if decision[CONFIDENT]:
                    writeback, correct = model._validate_load(
                        inst.value, decision, dispatch, complete,
                        mem, pending_stores, store_info, hierarchy,
                        l1d_hit, cfg, result, fetch, paq, vpe,
                    )
                    if writeback < 0:  # flush sentinel
                        writeback = complete
                        redirect = complete + cfg.redirect_penalty
                        if redirect > next_fetch_allowed:
                            next_fetch_allowed = redirect
                        current_block = -1
                heapq.heappush(pending_updates, (
                    complete, update_seq, decision, inst.addr, inst.size,
                    inst.value, correct,
                ))
                update_seq += 1
            if inst.dest != REG_NONE:
                reg_avail[inst.dest] = writeback
        elif inst.dest != REG_NONE:
            reg_avail[inst.dest] = complete

        # Commit (in order, commit_width per cycle)
        commit = complete + 1
        if commit < last_commit:
            commit = last_commit
        if commit == last_commit:
            if committed_in_cycle >= commit_width:
                commit += 1
                committed_in_cycle = 1
            else:
                committed_in_cycle += 1
        else:
            committed_in_cycle = 1
        last_commit = commit

        if op is OpClass.STORE:
            pending_stores.append((complete, inst.addr, inst.size, inst.value))
            hierarchy.store_latency(inst.addr)
            stq.admit(commit)
        elif op is OpClass.LOAD:
            ldq.admit(commit)
        rob.admit(commit)
        iq.admit(issue + 1)
        predictor.tick_instructions(1)

    while pending_updates:
        _, _, d, a, s, v, c = heapq.heappop(pending_updates)
        predictor.validate_and_train(d, a, s, v, c)

    return model._finish(
        result, last_commit, memdep, branch_stats(branch_unit),
        hierarchy.counters(), 0,
    )


def simulate_objects(
    trace: Trace, predictor=None, config=None, seed: int = 0, **kwargs
) -> SimResult:
    """The oracle twin of :func:`repro.pipeline.core.simulate`."""
    model = CoreModel(config=config, predictor=predictor, seed=seed)
    return run_objects(model, trace, **kwargs)
