"""The trace-driven out-of-order core model.

One program-order pass computes, for every instruction, the cycles at
which it is fetched, dispatched, issued, completed, and committed,
under the constraints listed in the package docstring.  Squashed
wrong-path work is charged as front-end redirect delay (standard for
trace-driven models: wrong-path instructions are never simulated).

Value-prediction flow per predictable load (Figure 1 of the paper):

1. at fetch, the predictor assembly is probed with the speculative
   histories and the in-flight count for this PC;
2. a chosen VALUE prediction is available in the VPE at dispatch; a
   chosen ADDRESS prediction waits ``paq_queue_delay`` cycles in the
   PAQ, probes the L1D (non-allocating), and, on a hit, delivers the
   probed value to the VPE;
3. consumers read the VPE instead of waiting for the load's register;
4. when the load executes, the speculative value is validated against
   the architectural value.  A used-and-wrong prediction flushes the
   pipeline: fetch restarts after the load completes;
5. the predictor assembly trains with the load's outcome and the
   per-component correctness verdicts (address predictions are judged
   by the *value* the probe returned, so a conflicting in-flight store
   or a wrong-but-coincidentally-equal address is decided exactly).

One loop computes the pass.  :meth:`CoreModel.run` iterates the packed
:class:`repro.isa.columns.TraceColumns` (packing an object-built trace
first; the columns are memoized on the trace) with prebound locals and
precomputed per-opclass dispatch tables instead of enum property calls.

The front end is trace-determined: histories take actual outcomes and
each branch is predicted and trained within its own iteration, so the
branch unit (TAGE, ITTAGE, RAS, BTB), the three history registers and
every folded register evolve identically whatever the timing.  The loop
replays a :class:`repro.pipeline.frontend.FrontEndStream` -- per-branch
bubbles and mispredictions, per-predictable-load history snapshots,
final branch statistics -- recorded once per trace and shared by every
predictor assembly run on it.  The stream also memoizes the
context-aware components' per-load table hashes (CVP and CAP hash only
the load PC and these histories): :meth:`CoreModel.run` binds the
stream to the predictor assembly for the run, and every probe and
outcome carries the load's ordinal, by which those components look the
hashes up instead of recomputing them.  What depends on timing stays
serial: the memory hierarchy (flushes refetch blocks, PAQ probes touch
the L1D when their prediction is chosen) and the deferred predictor
updates (applied once fetch passes a load's completion).

The reference oracle is the same pass over ``trace.instructions``
driving a live :class:`~repro.branch.unit.BranchUnit`; it lives in
``tests/oracles/core_loop.py``, funnels every stateful step (caches,
predictor, memory probe resolution) through this module's load helpers
with the same values in the same order, and must produce a
bit-identical :class:`SimResult` (randomized and property-based tests
in ``tests/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.branch.ittage import IttageConfig
from repro.branch.tage import TageConfig
from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    NUM_ARCH_REGS,
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
    REG_NONE,
)
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import MemoryImage
from repro.pipeline.config import CoreConfig
from repro.pipeline.frontend import branch_folds, frontend_stream
from repro.pipeline.memdep import StoreSetPredictor
from repro.pipeline.resources import WindowTracker
from repro.pipeline.result import SimResult
from repro.pipeline.vp import NoPredictor, ValuePredictorHost
from repro.predictors.types import LoadOutcome, LoadProbe, PredictionKind

#: Semantics version of the timing model, registered with the results
#: database (:mod:`repro.harness.resultsdb`).  Bump whenever a change
#: alters the *numbers* a timing run produces -- cycle accounting,
#: predictor interaction ordering, flush policy -- so stale cached
#: cells stop matching.  Pure refactors and speedups leave it alone.
#: 2: ``SimResult.accuracy`` is 0.0, not 1.0, when nothing was predicted.
TIMING_SEMANTICS_VERSION = 2

# Raw opclass integers the dispatch tables key on; defined next to the
# enum in repro.isa.instruction so the columnar loop cannot drift.
_OP_LOAD = OP_LOAD
_OP_STORE = OP_STORE
_OP_BRANCH_LO = OP_BRANCH_FIRST
_OP_BRANCH_HI = OP_BRANCH_LAST


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
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        # Let the predictor assembly register its fold widths after the
        # branch predictors' (probes then carry pre-folded values).  The
        # slots are laid out on a table-free HistorySet; the front-end
        # recorder's live branch unit repeats the layout.
        histories = branch_folds(self.tage_config, self.ittage_config)
        bind = getattr(self.predictor, "bind_history", None)
        if bind is not None:
            bind(histories)
        self.fold_layout = histories.fold_layout()
        self._last_correctness: dict[str, bool] = {}
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
        A run on a trace whose front end is not yet recorded polls
        during the recording pass too, counting that pass's
        instructions from zero, so a deadline holds on a cold trace.

        The loop reads the packed columns (``trace.pack()`` builds them
        once for an object-built trace): column values are plain
        integers read from packed arrays, opclass tests are integer
        compares against the module-level ``_OP_*`` constants,
        execution latency comes from the precomputed per-opclass
        dispatch table, and every method or attribute that the loop
        touches per instruction is prebound to a local.  The branch
        unit and history registers are not driven live: their
        trace-determined outcomes are replayed from the trace's
        :class:`~repro.pipeline.frontend.FrontEndStream` (recorded on
        first use).  The stream is bound to the predictor assembly for
        the run (``bind_frontend``) and released when it returns or
        raises; probes and outcomes carry the load's ordinal, by which
        context-aware components look up their per-trace table hashes.
        Keep edits in lockstep with the object-path oracle in
        ``tests/oracles/core_loop.py`` -- the equivalence suite will
        catch any divergence.
        """
        cols = trace.pack()
        stream = frontend_stream(
            trace, self.tage_config, self.ittage_config,
            self.config.ras_entries, self.seed, self.fold_layout,
            interrupt, interrupt_interval,
        )
        bind = getattr(self.predictor, "bind_frontend", None)
        if bind is not None:
            bind(stream)
        try:
            return self._replay(
                trace, cols, stream, interrupt, interrupt_interval
            )
        finally:
            if bind is not None:
                bind(None)

    def _replay(
        self, trace: Trace, cols, stream, interrupt, interrupt_interval: int
    ) -> SimResult:
        """The body of :meth:`run`: one pass over ``trace``'s packed
        columns, replaying ``stream``."""
        cfg = self.config
        predictor = self.predictor
        hierarchy = self.hierarchy
        layout = self.fold_layout
        l1d_hit = cfg.hierarchy.l1d.hit_latency
        l1i_hit = cfg.hierarchy.l1i.hit_latency
        depth = cfg.frontend_depth
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        latency_by_op = self._latency_by_op
        store_latency = latency_by_op[_OP_STORE]
        redirect_penalty = cfg.redirect_penalty
        ldq_entries = cfg.ldq_entries

        # Lane schedulers and window trackers, inlined: the per-lane
        # min-heaps and release deques below replay LaneScheduler.acquire
        # / WindowTracker.earliest_allocation+admit verbatim, shedding
        # one Python frame per call at several calls per instruction.
        ls_free = [0] * cfg.ls_lanes
        generic_free = [0] * cfg.generic_lanes
        rob_cap = cfg.rob_entries
        iq_cap = cfg.iq_entries
        ldq_cap = cfg.ldq_entries
        stq_cap = cfg.stq_entries
        rob_rel: deque[int] = deque()
        iq_rel: deque[int] = deque()
        ldq_rel: deque[int] = deque()
        stq_rel: deque[int] = deque()
        # PAQ/VPE stay real trackers: _validate_load owns their logic.
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

        pending_updates: list = []
        update_seq = 0

        result = SimResult(workload=trace.name, instructions=len(trace), cycles=0)
        result.predictor_storage_bits = predictor.storage_bits()

        if cfg.warm_l3:
            self._warm_l3(trace)

        # Column and callable prebinds (the whole point of this loop).
        pcs = cols.pc
        ops = cols.op
        dests = cols.dest
        addrs = cols.addr
        sizes = cols.size
        values = cols.value
        flags_col = cols.flags
        src_offsets = cols.src_offsets
        src_regs = cols.src_regs
        rob_append = rob_rel.append
        rob_popleft = rob_rel.popleft
        iq_append = iq_rel.append
        iq_popleft = iq_rel.popleft
        ldq_append = ldq_rel.append
        ldq_popleft = ldq_rel.popleft
        stq_append = stq_rel.append
        stq_popleft = stq_rel.popleft
        fetch_latency = hierarchy.fetch_latency
        store_latency_fn = hierarchy.store_latency
        predict = predictor.predict
        validate_and_train = predictor.validate_and_train
        tick_instructions = predictor.tick_instructions
        # Front-end replay cursors: ``branch`` indexes branch codes,
        # ``probe`` predictable loads' history snapshots.
        branch_codes = stream.branch_codes
        snap_directions = stream.direction
        snap_paths = stream.path
        snap_load_paths = stream.load_path
        snap_folds = stream.folds
        stride = stream.stride
        n_folds = len(layout)
        branch = 0
        probe = 0
        load_complete = self._load_complete
        validate_load = self._validate_load
        inflight_get = inflight_loads.get
        store_info_put = store_info.__setitem__
        pending_stores_append = pending_stores.append
        heappush = heapq.heappush
        heappop = heapq.heappop
        memdep_wait = memdep.load_wait_until if memdep is not None else None
        memdep_note_store = memdep.note_store if memdep is not None else None

        instructions_done = 0
        next_interrupt_check = interrupt_interval if interrupt else None
        name = trace.name
        pending_ticks = 0

        # Loop-owned result counters, accumulated in locals and folded
        # into ``result`` after the loop (attribute stores are not free
        # at this call rate).
        n_loads = 0
        n_predictable = 0
        n_branch_misp = 0
        n_violations = 0

        for i in range(len(cols)):
            if next_interrupt_check is not None:
                instructions_done += 1
                if instructions_done >= next_interrupt_check:
                    next_interrupt_check += interrupt_interval
                    if interrupt(instructions_done):
                        raise SimulationInterrupted(name, instructions_done)
            op = ops[i]
            pc = pcs[i]

            # ----------------------------------------------------------
            # Fetch
            # ----------------------------------------------------------
            floor = next_fetch_allowed
            window_floor = (
                rob_rel[0] if len(rob_rel) == rob_cap else 0
            ) - depth
            other = (iq_rel[0] if len(iq_rel) == iq_cap else 0) - depth
            if other > window_floor:
                window_floor = other
            if op == _OP_LOAD:
                other = (
                    ldq_rel[0] if len(ldq_rel) == ldq_cap else 0
                ) - depth
                if other > window_floor:
                    window_floor = other
            elif op == _OP_STORE:
                other = (
                    stq_rel[0] if len(stq_rel) == stq_cap else 0
                ) - depth
                if other > window_floor:
                    window_floor = other
            if window_floor > floor:
                floor = window_floor
            if fetch_cycle < floor:
                fetch_cycle = floor
                fetched_in_cycle = 0
            elif fetched_in_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            block = pc >> 6
            if block != current_block:
                current_block = block
                extra = fetch_latency(pc) - l1i_hit
                if extra > 0:
                    fetch_cycle += extra
                    fetched_in_cycle = 0
            fetch = fetch_cycle
            fetched_in_cycle += 1

            # ----------------------------------------------------------
            # Branch prediction / histories / value-predictor probe
            # ----------------------------------------------------------
            mispredicted = 0
            decision = None
            predictable = 0
            if _OP_BRANCH_LO <= op <= _OP_BRANCH_HI:
                code = branch_codes[branch]
                branch += 1
                mispredicted = code & 1
                if code > 1:
                    # Taken branch missed the BTB: decode redirect.
                    fetch_cycle += code >> 1
                    fetched_in_cycle = 0
                elif flags_col[i] & FLAG_TAKEN:
                    # Can't fetch past a taken branch this cycle.
                    fetched_in_cycle = fetch_width
            elif op == _OP_LOAD:
                predictable = flags_col[i] & FLAG_PREDICTABLE
                # Deliver the instruction ticks accumulated since the
                # last predictor interaction.  Epoch boundaries fire in
                # the same order relative to predict/train calls as the
                # per-instruction oracle, so this is
                # bit-identical -- just fewer method calls.
                if pending_ticks:
                    tick_instructions(pending_ticks)
                    pending_ticks = 0
                # Apply predictor updates from loads that have completed
                # by now -- the predictor state a fetch-time probe sees.
                while pending_updates and pending_updates[0][0] <= fetch:
                    _, _, d, o, c = heappop(pending_updates)
                    validate_and_train(d, o, c)
                if predictable:
                    # The fetch-time histories, as recorded in program
                    # order (training reuses them once the load
                    # completes).
                    snap_direction = snap_directions[probe]
                    snap_path = snap_paths[probe]
                    snap_load_path = snap_load_paths[probe]
                    base = probe * stride
                    snap_folded = tuple(snap_folds[base:base + n_folds])
                    ordinal = probe
                    probe += 1
                    flights = inflight_get(pc)
                    inflight = 0
                    if flights:
                        while flights and flights[0] <= fetch:
                            flights.popleft()
                        inflight = len(flights)
                    decision = predict(LoadProbe(
                        pc=pc,
                        direction_history=snap_direction,
                        path_history=snap_path,
                        load_path_history=snap_load_path,
                        inflight_same_pc=inflight,
                        folded=snap_folded,
                        ordinal=ordinal,
                    ))

            dispatch = fetch + depth

            # ----------------------------------------------------------
            # Issue and execute
            # ----------------------------------------------------------
            ready = dispatch + 1
            for j in range(src_offsets[i], src_offsets[i + 1]):
                avail = reg_avail[src_regs[j]]
                if avail > ready:
                    ready = avail
            if op == _OP_LOAD:
                if memdep_wait is not None:
                    # Predicted-dependent loads wait for their store set.
                    wait_until = memdep_wait(pc)
                    if wait_until > ready:
                        ready = wait_until
                earliest = heappop(ls_free)
                issue = ready if ready > earliest else earliest
                heappush(ls_free, issue + 1)
                addr = addrs[i]
                size = sizes[i]
                complete, violation_store_pc, violation_ready = load_complete(
                    pc, addr, size, issue, hierarchy, store_info, memdep, cfg
                )
                if violation_store_pc is not None:
                    # Memory-order violation: the load speculated past a
                    # store whose data was not ready.  Flush younger
                    # work and teach the store-set predictor.
                    n_violations += 1
                    memdep.record_violation(pc, violation_store_pc)
                    redirect = violation_ready + redirect_penalty
                    if redirect > next_fetch_allowed:
                        next_fetch_allowed = redirect
                    current_block = -1
                flights = inflight_get(pc)
                if flights is None:
                    flights = inflight_loads[pc] = deque(maxlen=ldq_entries)
                flights.append(complete)
                n_loads += 1
                if predictable:
                    n_predictable += 1
            elif op == _OP_STORE:
                earliest = heappop(ls_free)
                issue = ready if ready > earliest else earliest
                heappush(ls_free, issue + 1)
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
            else:
                earliest = heappop(generic_free)
                issue = ready if ready > earliest else earliest
                heappush(generic_free, issue + 1)
                complete = issue + latency_by_op[op]

            # ----------------------------------------------------------
            # Branch resolution
            # ----------------------------------------------------------
            if mispredicted:
                n_branch_misp += 1
                redirect = complete + redirect_penalty
                if redirect > next_fetch_allowed:
                    next_fetch_allowed = redirect
                current_block = -1

            # ----------------------------------------------------------
            # Value-prediction validation and training
            # ----------------------------------------------------------
            dest = dests[i]
            if op == _OP_LOAD:
                writeback = complete
                if decision is not None:
                    value = values[i]
                    self._last_correctness = {}
                    if decision.confident:
                        writeback = validate_load(
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
                    outcome = LoadOutcome(
                        pc=pc, addr=addr, size=size, value=value,
                        direction_history=snap_direction,
                        path_history=snap_path,
                        load_path_history=snap_load_path,
                        folded=snap_folded,
                        ordinal=ordinal,
                    )
                    heappush(pending_updates, (
                        complete, update_seq, decision, outcome,
                        self._last_correctness,
                    ))
                    update_seq += 1
                if dest != REG_NONE:
                    reg_avail[dest] = writeback
            elif dest != REG_NONE:
                reg_avail[dest] = complete

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

            if op == _OP_STORE:
                pending_stores_append((complete, addr, size, values[i]))
                store_latency_fn(addr)
                if len(stq_rel) >= stq_cap:
                    stq_popleft()
                stq_append(commit)
            elif op == _OP_LOAD:
                if len(ldq_rel) >= ldq_cap:
                    ldq_popleft()
                ldq_append(commit)
            if len(rob_rel) >= rob_cap:
                rob_popleft()
            rob_append(commit)
            if len(iq_rel) >= iq_cap:
                iq_popleft()
            iq_append(issue + 1)
            pending_ticks += 1

        if pending_ticks:
            tick_instructions(pending_ticks)

        # Drain the remaining deferred predictor updates so predictor
        # statistics cover every predicted load in the trace.
        while pending_updates:
            _, _, d, o, c = heappop(pending_updates)
            validate_and_train(d, o, c)

        result.loads = n_loads
        result.predictable_loads = n_predictable
        result.branch_mispredictions = n_branch_misp
        result.memory_order_violations = n_violations
        return self._finish(
            result, last_commit, memdep, dict(stream.branch_stats)
        )

    def _finish(
        self, result: SimResult, last_commit: int, memdep, branch: dict
    ) -> SimResult:
        """Fill the run's terminal cycle count and diagnostic extras."""
        hierarchy = self.hierarchy
        result.cycles = last_commit
        l1d = hierarchy.l1d.stats
        result.l1d_miss_rate = 1.0 - l1d.hit_rate
        result.extra = {
            "branch": branch,
            "caches": {
                level: {
                    "accesses": cache.stats.accesses,
                    "hit_rate": cache.stats.hit_rate,
                    "prefetch_fills": cache.stats.prefetch_fills,
                    "writebacks": cache.stats.writebacks,
                }
                for level, cache in (
                    ("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
                    ("l2", hierarchy.l2), ("l3", hierarchy.l3),
                )
            },
            "tlb_hit_rate": hierarchy.tlb.hit_rate,
            "prefetches_issued": hierarchy.prefetcher.issued
            + hierarchy.l2_prefetcher.issued,
            "memdep": (
                {
                    "violations": memdep.violations,
                    "waits_enforced": memdep.waits_enforced,
                }
                if memdep is not None else None
            ),
        }
        return result

    def _warm_l3(self, trace: Trace) -> None:
        """Install every referenced data block into the L3 (warm-up)."""
        l3 = self.hierarchy.l3
        block = self.hierarchy.config.l3.block_bytes
        seen: set[int] = set()
        cols = trace.columns
        ops = cols.op
        addrs = cols.addr
        fill = l3.fill
        for i in range(len(cols)):
            op = ops[i]
            if op == _OP_LOAD or op == _OP_STORE:
                addr = addrs[i]
                blk = addr // block
                if blk not in seen:
                    seen.add(blk)
                    fill(addr)

    # ------------------------------------------------------------------
    # Load helpers
    # ------------------------------------------------------------------

    def _load_complete(self, pc, addr, size, issue, hierarchy, store_info,
                       memdep, cfg) -> tuple[int, int | None, int]:
        """Execution of a demand load.

        Returns ``(complete, violating_store_pc, store_data_ready)``.
        The store PC is non-None when the load issued past an older
        in-flight store to its address whose data was not ready -- a
        memory-order violation under store-set speculation.  With the
        perfect-disambiguation oracle the load silently waits instead.
        """
        word_lo = addr >> 3
        word_hi = (addr + size - 1) >> 3
        forward_from = -1
        forward_pc = None
        for word in range(word_lo, word_hi + 1):
            info = store_info.get(word)
            if info is not None and info[1] > forward_from:
                forward_from = info[1]
                forward_pc = info[2]
        if forward_from >= 0:
            if forward_from > issue and memdep is not None:
                # Speculated past the store: violation, re-executed
                # after the store's data arrives.
                return (
                    forward_from + cfg.store_forward_latency,
                    forward_pc,
                    forward_from,
                )
            # Store-to-load forwarding out of the STQ (data ready by
            # issue, or the oracle made the load wait).
            begin = issue if issue > forward_from else forward_from
            return begin + cfg.store_forward_latency, None, 0
        return issue + hierarchy.load_latency(pc, addr), None, 0

    def _validate_load(
        self, value, decision, dispatch, complete,
        mem, pending_stores, store_info, hierarchy, l1d_hit, cfg, result,
        fetch, paq, vpe,
    ) -> int:
        """Resolve predictions for one load.

        ``value`` is the load's architectural result.  Returns the
        cycle at which the load's destination register is available to
        consumers, or a negative sentinel if a value misprediction
        flushed the pipeline (the caller applies the redirect).  Also
        leaves the per-component correctness verdicts in
        ``self._last_correctness`` for the training call.

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

        correctness: dict[str, bool] = {}
        probe_hit = False
        chosen = decision.chosen
        for name, prediction in decision.confident.items():
            if prediction.kind is PredictionKind.VALUE:
                correctness[name] = prediction.value == value
            else:
                probe_value = mem.read(prediction.addr, prediction.size)
                correctness[name] = probe_value == value
                if chosen is not None and name == chosen.component:
                    probe_hit, _ = hierarchy.probe_l1d(prediction.addr)
        self._last_correctness = correctness

        if chosen is None:
            return complete

        # A chosen prediction needs a VPE slot from fetch until the
        # load validates; full VPE -> prediction dropped.
        if vpe.earliest_allocation() > fetch:
            result.dropped_queue_full += 1
            return complete
        vpe.admit(complete)

        if chosen.kind is PredictionKind.VALUE:
            # The predictor is probed at fetch and the value sits in the
            # VPE a couple of cycles later -- before any consumer can
            # reach rename, making the load appear zero-cycle.
            vpe_ready = dispatch - cfg.frontend_depth + 2
        else:
            # An address prediction additionally occupies a PAQ entry
            # from fetch until the probe returns.
            if paq.earliest_allocation() > fetch:
                result.dropped_queue_full += 1
                return complete
            paq.admit(t_probe + l1d_hit)
            result.paq_probes += 1
            if not probe_hit:
                # Probe missed: prediction dropped, no value forwarded.
                result.dropped_probe_misses += 1
                if cfg.paq_prefetch_on_miss:
                    hierarchy.l1d.fill(chosen.addr, from_prefetch=True)
                return complete
            # PAQ store-queue CAM (DLVP's conflicting-store filter): an
            # older in-flight store to the predicted address whose
            # *address is already known* (issued by probe time) makes
            # the probe drop the prediction rather than forward stale
            # data.  A store whose address resolves later is invisible
            # to the CAM -- the stale forward proceeds and is caught at
            # validation (the genuine misprediction case).
            word_lo = chosen.addr >> 3
            word_hi = (chosen.addr + max(chosen.size, 1) - 1) >> 3
            for word in range(word_lo, word_hi + 1):
                info = store_info.get(word)
                if info is not None and info[1] > t_probe >= info[0]:
                    result.dropped_store_conflicts += 1
                    return complete
            vpe_ready = t_probe + l1d_hit

        result.predicted_loads += 1
        if correctness[chosen.component]:
            result.correct_predictions += 1
            return vpe_ready if vpe_ready < complete else complete
        result.value_mispredictions += 1
        return -1  # flush sentinel


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
