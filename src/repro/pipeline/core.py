"""The trace-driven out-of-order core model.

One program-order pass computes, for every instruction, the cycles at
which it is fetched, dispatched, issued, completed, and committed,
under the constraints listed in the package docstring.  Squashed
wrong-path work is charged as front-end redirect delay (standard for
trace-driven models: wrong-path instructions are never simulated).

Value-prediction flow per predictable load (Figure 1 of the paper):

1. at fetch, the predictor assembly is probed with the load's fields
   as plain ints -- its PC, its ordinal, the speculative histories and
   the in-flight count for this PC -- and answers with one flat
   decision record (:mod:`repro.predictors.types`);
2. a chosen VALUE prediction is available in the VPE at dispatch; a
   chosen ADDRESS prediction waits ``paq_queue_delay`` cycles in the
   PAQ, probes the L1D (non-allocating), and, on a hit, delivers the
   probed value to the VPE;
3. consumers read the VPE instead of waiting for the load's register;
4. when the load executes, the speculative value is validated against
   the architectural value.  A used-and-wrong prediction flushes the
   pipeline: fetch restarts after the load completes;
5. the predictor assembly trains with the fetch-time decision, the
   load's ``(addr, size, value)`` and the verdict mask, one bit per
   confident slot whose prediction was right (address predictions are
   judged by the *value* the probe returned, so a conflicting
   in-flight store or a wrong-but-coincidentally-equal address is
   decided exactly).

One loop computes the pass.  :meth:`CoreModel.run` iterates the packed
:class:`repro.isa.columns.TraceColumns` (packing an object-built trace
first; the columns are memoized on the trace) and their
:class:`~repro.isa.columns.Dataflow` columns, built once per trace: a
kind code per instruction (other, branch, load, store) and, per source
operand, the index of the earlier instruction that produces it.  The
loop keeps every instruction's result cycle in one list, so an
operand is ready when its producer's result is, and after the shared
fetch code each kind runs one body.

The front end is trace-determined: histories take actual outcomes and
each branch is predicted and trained within its own iteration, so the
branch unit (TAGE, ITTAGE, RAS, BTB) and the three history registers
evolve identically whatever the timing.  The loop replays a
:class:`repro.pipeline.frontend.FrontEndStream` -- per-branch bubbles
and mispredictions, final branch statistics -- recorded once per trace
and shared by every predictor assembly run on it, and probes each
predictable load with the fetch-time histories of the trace's shared
:class:`repro.branch.history.LoadHistories`.  The context-aware
components' per-load table hashes are trace-determined too (CVP and
CAP hash only the load PC and these histories): :meth:`CoreModel.run`
binds the trace to the predictor assembly for the run, and every probe
passes the load's ordinal, by which those components look the hashes
up instead of recomputing them.

The memory hierarchy is trace-determined too.  A PAQ probe reads the
L1D without allocating, every load to a word an earlier store wrote is
forwarded, and the rest -- fetches on a block change, unforwarded
loads, stores at commit -- reach the caches in program order.  A
same-block refetch after a flush hits the L1I's most-recently-used way
and changes nothing, so the loop serves it without a call and counts
it into the L1I statistics.  The loop therefore replays a
:class:`repro.memory.recording.HierarchyRecording` -- each call's
latency and the L1D's residency intervals, which answer a probe by
bisection -- recorded once per trace and hierarchy configuration.  The
one live case is ``CoreConfig.paq_prefetch_on_miss`` (Figure 1 step 5,
ablation A5): a probe miss fills the L1D, so predictions change the
caches and the run drives a fresh
:class:`~repro.memory.hierarchy.MemoryHierarchy` through the same four
calls in the same loop.  What depends on timing stays serial: the
store-set predictor and the deferred predictor updates (applied once
fetch passes a load's completion).

The load body pays no host call per load beyond the predictor's
``predict`` and ``validate_and_train`` (kept as method calls, so a
profiler that wraps them still sees them).  The predictor's epoch
clock is ticked at a run's start, at the first load at or past the
next epoch end that ``tick_instructions`` reported, and at the run's
end, so every epoch end fires before the first predict or train at or
after it.  Store-to-load forwarding scans the load's words inline (one
lookup for a load within one word), the store-set SSIT and LFST are
read in place (:class:`StoreSetPredictor` clears them in place), and
the enforced waits are added once after the loop.  A host with no
slots (the no-VP baseline) is not probed: its loads are counted and
the probe cursor advances, with no decision to validate or train.

The reference oracle is the same pass over ``trace.instructions``
driving a live :class:`~repro.branch.unit.BranchUnit` and a live
:class:`~repro.memory.hierarchy.MemoryHierarchy`; it lives in
``tests/oracles/core_loop.py``.  It ticks the predictor every
instruction, asks the store-set predictor's ``load_wait_until``,
resolves forwarding with its own ``load_complete``, shares
``_validate_load`` with this module, and must produce a bit-identical
:class:`SimResult` (randomized and property-based tests in
``tests/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.branch.history import load_histories
from repro.branch.ittage import IttageConfig
from repro.branch.tage import TageConfig
from repro.common.bits import bit_length_for
from repro.isa.columns import (
    FLAG_PREDICTABLE,
    FLAG_TAKEN,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_MEMORY,
    KIND_WIDE,
)
from repro.isa.instruction import OP_STORE, OpClass
from repro.isa.trace import Trace
from repro.memory.cache import CacheStats
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.memory.recording import (
    HierarchyReplay,
    hierarchy_recording,
    warm_l3,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.frontend import frontend_stream
from repro.pipeline.memdep import StoreSetPredictor
from repro.pipeline.resources import WindowTracker
from repro.pipeline.result import SimResult
from repro.pipeline.vp import NoPredictor, ValuePredictorHost, judge
from repro.predictors.types import (
    CHOSEN,
    CONFIDENT,
    PREDICTED,
    address_of,
    size_of,
)

#: Semantics version of the timing model, registered with the results
#: database (:mod:`repro.harness.resultsdb`).  Bump whenever a change
#: alters the *numbers* a timing run produces -- cycle accounting,
#: predictor interaction ordering, flush policy -- so stale cached
#: cells stop matching.  Pure refactors and speedups leave it alone.
#: 2: ``SimResult.accuracy`` is 0.0, not 1.0, when nothing was predicted.
#: 3: a lone component is a one-component plain composite, so it draws
#: its FPC stream from the composite's seed.
TIMING_SEMANTICS_VERSION = 3


class SimulationInterrupted(RuntimeError):
    """Raised when a run's interrupt hook asks the model to stop.

    Carries the workload name and how many instructions had been
    processed, so supervisors can report partial progress.  Used by the
    resilient harness to enforce cooperative per-cell deadlines without
    subprocesses (:mod:`repro.harness.resilient`).
    """

    def __init__(self, workload: str, instructions_done: int) -> None:
        super().__init__(
            f"simulation of {workload!r} interrupted after "
            f"{instructions_done} instructions"
        )
        self.workload = workload
        self.instructions_done = instructions_done


class CoreModel:
    """A single-core timing model bound to one predictor assembly."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        predictor: ValuePredictorHost | None = None,
        tage_config: TageConfig | None = None,
        ittage_config: IttageConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or CoreConfig()
        self.predictor = predictor if predictor is not None else NoPredictor()
        self.tage_config = tage_config or TageConfig()
        self.ittage_config = ittage_config or IttageConfig()
        self.seed = seed
        # Per-opclass dispatch table: execution latency indexed by the
        # raw opclass integer (no enum hashing in the hot loop).  LOAD
        # has no table latency -- the hierarchy decides -- so its slot
        # is a placeholder the loop never reads.
        self._latency_by_op = tuple(
            self.config.latencies.get(OpClass(i), 0)
            for i in range(len(OpClass))
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        interrupt=None,
        interrupt_interval: int = 1024,
    ) -> SimResult:
        """Simulate ``trace`` and return its :class:`SimResult`.

        ``interrupt``, if given, is called every ``interrupt_interval``
        instructions with the number of instructions processed so far;
        returning a truthy value raises :class:`SimulationInterrupted`.
        This is the progress/cancellation seam the resilient harness
        uses for cooperative timeouts and the CLI for progress display.
        A run on a trace whose front end or hierarchy is not yet
        recorded polls during each recording pass too, counting that
        pass's instructions from zero, so a deadline holds on a cold
        trace.

        The loop reads the packed columns (``trace.pack()`` builds them
        once for an object-built trace) and their dataflow columns
        (``TraceColumns.dataflow()``, built once per trace): each
        instruction's kind code picks one body (other, branch, load or
        store), each source operand is ready at its producer's result
        cycle, read from the run's ``done`` list by the producer's
        index, execution latency comes from the precomputed
        per-opclass table, and every method or attribute that the loop
        touches per instruction is prebound to a local.  The branch
        unit and history registers are not driven live: their
        trace-determined outcomes are replayed from the trace's
        :class:`~repro.pipeline.frontend.FrontEndStream` (recorded on
        first use as one whole-trace batch: history and hash columns,
        then one loop over the branches' table state), and so are the
        memory hierarchy's, from its
        :class:`~repro.memory.recording.HierarchyRecording`, unless
        ``paq_prefetch_on_miss`` makes the run drive a live one.  Each
        predictable load is probed with its fetch-time histories from
        the trace's :class:`~repro.branch.history.LoadHistories`.  The
        trace is bound to the predictor assembly for the run
        (``bind_trace``) and released when it returns or raises;
        probes carry the load's ordinal, by which context-aware
        components look up their per-trace table hashes.
        Keep edits in lockstep with the object-path oracle in
        ``tests/oracles/core_loop.py`` -- the equivalence suite will
        catch any divergence.
        """
        cfg = self.config
        cols = trace.pack()
        stream = frontend_stream(
            trace, self.tage_config, self.ittage_config,
            cfg.ras_entries, self.seed, interrupt, interrupt_interval,
        )
        if cfg.paq_prefetch_on_miss:
            # A probe miss fills the L1D, so predictions change the
            # caches: this run drives a live hierarchy.
            hierarchy = MemoryHierarchy(cfg.hierarchy)
            if cfg.warm_l3:
                warm_l3(hierarchy, trace)
        else:
            hierarchy = HierarchyReplay(hierarchy_recording(
                trace, cfg.hierarchy, cfg.warm_l3,
                interrupt, interrupt_interval,
            ))
        bind = getattr(self.predictor, "bind_trace", None)
        if bind is not None:
            bind(trace)
        try:
            return self._replay(
                trace, cols, stream, hierarchy, interrupt, interrupt_interval
            )
        finally:
            if bind is not None:
                bind(None)

    def _replay(
        self, trace: Trace, cols, stream, hierarchy, interrupt,
        interrupt_interval: int,
    ) -> SimResult:
        """The body of :meth:`run`: one pass over ``trace``'s packed
        columns, replaying ``stream`` and asking ``hierarchy`` (a
        recording's replay or a live hierarchy) for memory latencies."""
        cfg = self.config
        predictor = self.predictor
        l1d_hit = cfg.hierarchy.l1d.hit_latency
        l1i_hit = cfg.hierarchy.l1i.hit_latency
        block_shift = bit_length_for(cfg.hierarchy.l1i.block_bytes)
        depth = cfg.frontend_depth
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        latency_by_op = self._latency_by_op
        store_latency = latency_by_op[OP_STORE]
        redirect_penalty = cfg.redirect_penalty

        # Lane schedulers and window trackers, inlined (the oracle in
        # tests/oracles/core_loop.py keeps them as objects).  A lane
        # heap holds each lane's next free cycle: an instruction issues
        # at the minimum, read at [0], and heapreplace books the slot
        # in one call.  A window of capacity C is a ring of C release
        # cycles indexed by the entry's ordinal (instruction, load or
        # store count) modulo C: the slot entry n reads at fetch holds
        # the release of entry n - C, the one it waits for, and entry n
        # then overwrites it.  The rings start at 0, the floor while a
        # window is not yet full.
        ls_free = [0] * cfg.ls_lanes
        generic_free = [0] * cfg.generic_lanes
        rob_cap = cfg.rob_entries
        iq_cap = cfg.iq_entries
        ldq_cap = cfg.ldq_entries
        stq_cap = cfg.stq_entries
        rob_rel = [0] * rob_cap
        iq_rel = [0] * iq_cap
        ldq_rel = [0] * ldq_cap
        stq_rel = [0] * stq_cap
        n_stores = 0
        # PAQ/VPE stay real trackers: _validate_load owns their logic.
        paq = WindowTracker(cfg.paq_entries)
        vpe = WindowTracker(cfg.vpe_entries)

        # Dataflow: each source operand names the instruction producing
        # it, and ``done`` holds every instruction's result cycle (its
        # completion; a load's writeback), so an operand is ready at
        # ``done[producer]``.  Slot n, the producer of an operand no
        # earlier instruction writes, stays 0.
        n = len(cols)
        flow = cols.dataflow()
        kinds = flow.kind
        src0 = flow.src0
        src1 = flow.src1
        wide = flow.wide
        done = [0] * (n + 1)

        fetch_cycle = 0
        fetched_in_cycle = 0
        next_fetch_allowed = 0
        # ``current_block`` is the fetch block, reset to -1 by a flush;
        # ``fetched_block`` is the L1I block last asked of the hierarchy.
        current_block = -1
        fetched_block = -1
        refetches = 0

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
        # The store-set tables, read in place (a flash-clear empties
        # them in place); the loop counts the waits it enforces.
        if memdep is not None:
            ssit = memdep._ssit
            lfst_get = memdep._lfst.get
            ssit_shift = 2 + memdep._ssit_bits
            ssit_mask = (1 << memdep._ssit_bits) - 1
            memdep_note_store = memdep.note_store
        else:
            ssit = memdep_note_store = None
        waits = 0

        inflight_loads: dict[int, deque[int]] = {}

        pending_updates: list = []
        update_seq = 0

        result = SimResult(workload=trace.name, instructions=n, cycles=0)
        result.predictor_storage_bits = predictor.storage_bits()

        # Column and callable prebinds (the whole point of this loop).
        pcs = cols.pc
        ops = cols.op
        addrs = cols.addr
        sizes = cols.size
        values = cols.value
        flags_col = cols.flags
        fetch_latency = hierarchy.fetch_latency
        load_latency = hierarchy.load_latency
        store_latency_fn = hierarchy.store_latency
        forward_latency = cfg.store_forward_latency
        # A host with no slots is not probed: its loads get no decision.
        predicting = bool(predictor.slot_names)
        predict = predictor.predict
        validate_and_train = predictor.validate_and_train
        tick_instructions = predictor.tick_instructions
        # Front-end replay cursors: ``branch`` indexes branch codes,
        # ``probe`` predictable loads' history snapshots.
        branch_codes = stream.branch_codes
        snap_directions, snap_paths, snap_load_paths = (
            load_histories(trace).snapshots()
        )
        branch = 0
        probe = 0
        validate_load = self._validate_load
        inflight_get = inflight_loads.get
        store_info_get = store_info.get
        store_info_put = store_info.__setitem__
        pending_stores_append = pending_stores.append
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        # ``interrupt`` is polled when ``i + 1`` instructions have
        # started, every ``poll_step`` of them.
        poll_step = interrupt_interval if interrupt_interval > 0 else 1
        poll_at = poll_step - 1 if interrupt else -1
        name = trace.name
        # Instructions before index ``ticked`` have been delivered to
        # the predictor's epoch clock, which needs its next tick once a
        # load's index reaches ``tick_at``.
        ticked = 0
        tick_at = tick_instructions(0)

        # Loop-owned result counters, accumulated in locals and folded
        # into ``result`` after the loop (attribute stores are not free
        # at this call rate).
        n_loads = 0
        n_predictable = 0
        n_branch_misp = 0
        n_violations = 0

        for i, kind, pc, first, second in zip(
            range(n), kinds, pcs, src0, src1,
        ):
            if i == poll_at:
                poll_at += poll_step
                if interrupt(i + 1):
                    raise SimulationInterrupted(name, i + 1)

            # ----------------------------------------------------------
            # Fetch
            # ----------------------------------------------------------
            floor = next_fetch_allowed
            rob_slot = i % rob_cap
            iq_slot = i % iq_cap
            window_floor = rob_rel[rob_slot]
            other = iq_rel[iq_slot]
            if other > window_floor:
                window_floor = other
            if kind & KIND_MEMORY:
                if kind & 1:
                    mem_rel = stq_rel
                    mem_slot = n_stores % stq_cap
                else:
                    mem_rel = ldq_rel
                    mem_slot = n_loads % ldq_cap
                other = mem_rel[mem_slot]
                if other > window_floor:
                    window_floor = other
            window_floor -= depth
            if window_floor > floor:
                floor = window_floor
            if fetch_cycle < floor:
                fetch_cycle = floor
                fetched_in_cycle = 0
            elif fetched_in_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            block = pc >> block_shift
            if block != current_block:
                current_block = block
                if block == fetched_block:
                    # Same-block refetch after a flush: a hit on the
                    # L1I's most-recently-used way, which changes no
                    # state.
                    refetches += 1
                else:
                    fetched_block = block
                    extra = fetch_latency(pc) - l1i_hit
                    if extra > 0:
                        fetch_cycle += extra
                        fetched_in_cycle = 0
            fetch = fetch_cycle
            fetched_in_cycle += 1
            dispatch = fetch + depth

            # Ready once dispatched and every source operand's producer
            # has its result.
            ready = dispatch + 1
            avail = done[first]
            if avail > ready:
                ready = avail
            avail = done[second]
            if avail > ready:
                ready = avail
            if kind & KIND_WIDE:
                for producer in wide[i]:
                    avail = done[producer]
                    if avail > ready:
                        ready = avail
                kind ^= KIND_WIDE

            # ----------------------------------------------------------
            # Issue and execute, one body per kind
            # ----------------------------------------------------------
            if not kind:
                earliest = generic_free[0]
                issue = ready if ready > earliest else earliest
                heapreplace(generic_free, issue + 1)
                complete = issue + latency_by_op[ops[i]]
                done[i] = complete

            elif kind == KIND_LOAD:
                # Deliver the instructions before this load once they
                # reach the predictor's next epoch boundary: it fires
                # before the first predict or train at or after it, as
                # in the per-instruction oracle.
                if i >= tick_at:
                    tick_at = i + tick_instructions(i - ticked)
                    ticked = i
                # Apply predictor updates from loads that have completed
                # by now -- the predictor state a fetch-time probe sees.
                while pending_updates and pending_updates[0][0] <= fetch:
                    _, _, d, a, s, v, c = heappop(pending_updates)
                    validate_and_train(d, a, s, v, c)
                # Completion cycles of this PC's older instances, in
                # program order; those at the front done by fetch leave
                # (only the front: EXPERIMENTS.md D8).
                flights = inflight_get(pc)
                if flights is None:
                    flights = inflight_loads[pc] = deque(maxlen=ldq_cap)
                decision = None
                if flags_col[i] & FLAG_PREDICTABLE:
                    if predicting:
                        while flights and flights[0] <= fetch:
                            flights.popleft()
                        # The fetch-time histories, as recorded in
                        # program order (training reuses the decision's
                        # load fields once the load completes).
                        decision = predict(
                            pc, probe, snap_directions[probe],
                            snap_paths[probe], snap_load_paths[probe],
                            len(flights),
                        )
                    probe += 1
                    n_predictable += 1
                if ssit is not None:
                    # Predicted-dependent loads wait for their store set.
                    ssid = ssit[((pc >> 2) ^ (pc >> ssit_shift)) & ssit_mask]
                    if ssid >= 0:
                        wait_until = lfst_get(ssid, -1)
                        if wait_until >= 0:
                            waits += 1
                            if wait_until > ready:
                                ready = wait_until
                earliest = ls_free[0]
                issue = ready if ready > earliest else earliest
                heapreplace(ls_free, issue + 1)
                addr = addrs[i]
                size = sizes[i]
                # Store-to-load forwarding: the store to the load's
                # words whose data is ready last, if any.
                word = addr >> 3
                info = store_info_get(word)
                last_word = (addr + size - 1) >> 3
                while word < last_word:
                    word += 1
                    other = store_info_get(word)
                    if other is not None and (
                        info is None or other[1] > info[1]
                    ):
                        info = other
                if info is None:
                    complete = issue + load_latency(pc, addr)
                else:
                    forward_from = info[1]
                    if forward_from > issue:
                        complete = forward_from + forward_latency
                        if memdep is not None:
                            # Memory-order violation: the load speculated
                            # past a store whose data was not ready.
                            # Flush younger work and teach the store-set
                            # predictor (perfect disambiguation waits).
                            n_violations += 1
                            memdep.record_violation(pc, info[2])
                            redirect = forward_from + redirect_penalty
                            if redirect > next_fetch_allowed:
                                next_fetch_allowed = redirect
                            current_block = -1
                    else:
                        complete = issue + forward_latency
                flights.append(complete)
                n_loads += 1
                # Value-prediction validation and training.
                writeback = complete
                if decision is not None:
                    value = values[i]
                    correct = 0
                    if decision[CONFIDENT]:
                        writeback, correct = validate_load(
                            value, decision, dispatch, complete,
                            mem, pending_stores, store_info, hierarchy,
                            l1d_hit, cfg, result, fetch, paq, vpe,
                        )
                        if writeback < 0:  # flush sentinel
                            writeback = complete
                            redirect = complete + redirect_penalty
                            if redirect > next_fetch_allowed:
                                next_fetch_allowed = redirect
                            current_block = -1
                    heappush(pending_updates, (
                        complete, update_seq, decision, addr, size, value,
                        correct,
                    ))
                    update_seq += 1
                done[i] = writeback

            elif kind == KIND_BRANCH:
                code = branch_codes[branch]
                branch += 1
                if code > 1:
                    # Taken branch missed the BTB: decode redirect.
                    fetch_cycle += code >> 1
                    fetched_in_cycle = 0
                elif flags_col[i] & FLAG_TAKEN:
                    # Can't fetch past a taken branch this cycle.
                    fetched_in_cycle = fetch_width
                earliest = generic_free[0]
                issue = ready if ready > earliest else earliest
                heapreplace(generic_free, issue + 1)
                complete = issue + latency_by_op[ops[i]]
                if code & 1:
                    # Mispredicted: fetch restarts after resolution.
                    n_branch_misp += 1
                    redirect = complete + redirect_penalty
                    if redirect > next_fetch_allowed:
                        next_fetch_allowed = redirect
                    current_block = -1
                done[i] = complete

            else:  # store
                earliest = ls_free[0]
                issue = ready if ready > earliest else earliest
                heapreplace(ls_free, issue + 1)
                addr = addrs[i]
                size = sizes[i]
                complete = issue + store_latency
                word_lo = addr >> 3
                word_hi = (addr + size - 1) >> 3
                info = (issue, complete, pc)
                for word in range(word_lo, word_hi + 1):
                    store_info_put(word, info)
                if memdep_note_store is not None:
                    memdep_note_store(pc, complete)
                pending_stores_append((complete, addr, size, values[i]))
                store_latency_fn(addr)
                n_stores += 1
                done[i] = complete

            # ----------------------------------------------------------
            # Commit (in order, commit_width per cycle)
            # ----------------------------------------------------------
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

            if kind & KIND_MEMORY:
                mem_rel[mem_slot] = commit
            rob_rel[rob_slot] = commit
            iq_rel[iq_slot] = issue + 1

        if n > ticked:
            tick_instructions(n - ticked)
        if memdep is not None:
            memdep.waits_enforced += waits

        # Drain the remaining deferred predictor updates so predictor
        # statistics cover every predicted load in the trace.
        while pending_updates:
            _, _, d, a, s, v, c = heappop(pending_updates)
            validate_and_train(d, a, s, v, c)

        result.loads = n_loads
        result.predictable_loads = n_predictable
        result.branch_mispredictions = n_branch_misp
        result.memory_order_violations = n_violations
        return self._finish(
            result, last_commit, memdep, dict(stream.branch_stats),
            hierarchy.counters(), refetches,
        )

    def _finish(
        self, result: SimResult, last_commit: int, memdep, branch: dict,
        counters: dict, refetches: int,
    ) -> SimResult:
        """Fill the run's terminal cycle count and diagnostic extras.

        ``counters`` are the hierarchy's statistics
        (:meth:`MemoryHierarchy.counters`).  ``refetches`` counts the
        same-block refetches the loop served without a hierarchy call;
        each is one more L1I access and hit.
        """
        caches = dict(counters["caches"])
        l1i = caches["l1i"]
        caches["l1i"] = CacheStats(
            l1i.accesses + refetches, l1i.hits + refetches,
            l1i.prefetch_fills, l1i.writebacks,
        )
        result.cycles = last_commit
        result.l1d_miss_rate = 1.0 - caches["l1d"].hit_rate
        result.extra = {
            "branch": branch,
            "caches": {
                level: {
                    "accesses": stats.accesses,
                    "hit_rate": stats.hit_rate,
                    "prefetch_fills": stats.prefetch_fills,
                    "writebacks": stats.writebacks,
                }
                for level, stats in caches.items()
            },
            "tlb_hit_rate": counters["tlb_hit_rate"],
            "prefetches_issued": counters["prefetches_issued"],
            "memdep": (
                {
                    "violations": memdep.violations,
                    "waits_enforced": memdep.waits_enforced,
                }
                if memdep is not None else None
            ),
        }
        return result

    # ------------------------------------------------------------------
    # Load helpers
    # ------------------------------------------------------------------

    def _validate_load(
        self, value, decision, dispatch, complete,
        mem, pending_stores, store_info, hierarchy, l1d_hit, cfg, result,
        fetch, paq, vpe,
    ) -> tuple[int, int]:
        """Resolve predictions for one load.

        ``value`` is the load's architectural result.  Returns the
        cycle at which the load's destination register is available to
        consumers, or a negative sentinel if a value misprediction
        flushed the pipeline (the caller applies the redirect), and the
        verdict mask for the training call.

        The PAQ probe launches from the front end (the predictor is
        probed at fetch; Figure 1 step 2), so predicted-address data can
        beat the load's own execution by most of the pipeline depth.
        """
        t_probe = dispatch - cfg.frontend_depth + cfg.paq_queue_delay
        # Apply stores committed by probe time (commit cycles are
        # monotonic, so a single pointer sweep is exact).
        while pending_stores and pending_stores[0][0] <= t_probe:
            _, addr, size, stored = pending_stores.popleft()
            mem.write(addr, size, stored)

        address_slots = self.predictor.address_slots
        correct = judge(decision, value, mem, address_slots)
        chosen = decision[CHOSEN]
        if chosen < 0:
            return complete, correct
        address = address_slots >> chosen & 1
        if address:
            prediction = decision[PREDICTED + chosen]
            chosen_addr = address_of(prediction)
            probe_hit, _ = hierarchy.probe_l1d(chosen_addr)

        # A chosen prediction needs a VPE slot from fetch until the
        # load validates; full VPE -> prediction dropped.
        if vpe.earliest_allocation() > fetch:
            result.dropped_queue_full += 1
            return complete, correct
        vpe.admit(complete)

        if not address:
            # The predictor is probed at fetch and the value sits in the
            # VPE a couple of cycles later -- before any consumer can
            # reach rename, making the load appear zero-cycle.
            vpe_ready = dispatch - cfg.frontend_depth + 2
        else:
            # An address prediction additionally occupies a PAQ entry
            # from fetch until the probe returns.
            if paq.earliest_allocation() > fetch:
                result.dropped_queue_full += 1
                return complete, correct
            paq.admit(t_probe + l1d_hit)
            result.paq_probes += 1
            if not probe_hit:
                # Probe missed: prediction dropped, no value forwarded.
                result.dropped_probe_misses += 1
                if cfg.paq_prefetch_on_miss:
                    hierarchy.l1d.fill(chosen_addr, from_prefetch=True)
                return complete, correct
            # PAQ store-queue CAM (DLVP's conflicting-store filter): an
            # older in-flight store to the predicted address whose
            # *address is already known* (issued by probe time) makes
            # the probe drop the prediction rather than forward stale
            # data.  A store whose address resolves later is invisible
            # to the CAM -- the stale forward proceeds and is caught at
            # validation (the genuine misprediction case).
            word_lo = chosen_addr >> 3
            word_hi = (chosen_addr + size_of(prediction) - 1) >> 3
            for word in range(word_lo, word_hi + 1):
                info = store_info.get(word)
                if info is not None and info[1] > t_probe >= info[0]:
                    result.dropped_store_conflicts += 1
                    return complete, correct
            vpe_ready = t_probe + l1d_hit

        result.predicted_loads += 1
        if correct >> chosen & 1:
            result.correct_predictions += 1
            if vpe_ready > complete:
                vpe_ready = complete
            return vpe_ready, correct
        result.value_mispredictions += 1
        return -1, correct  # flush sentinel


def simulate(
    trace: Trace,
    predictor: ValuePredictorHost | None = None,
    config: CoreConfig | None = None,
    seed: int = 0,
    interrupt=None,
    interrupt_interval: int = 1024,
) -> SimResult:
    """Convenience wrapper: build a core and run one trace.

    ``interrupt`` is forwarded to :meth:`CoreModel.run`: a callable
    polled every ``interrupt_interval`` instructions whose truthy
    return aborts the run with :class:`SimulationInterrupted`.
    """
    return CoreModel(config=config, predictor=predictor, seed=seed).run(
        trace, interrupt=interrupt, interrupt_interval=interrupt_interval,
    )
