"""The trace-determined front end, recorded once per trace and replayed.

The timing model is trace driven and updates its branch predictors and
history registers with *actual* outcomes, in program order, at points
no timing decision can move (fetch and resolve of one branch happen in
the same iteration of the core loop; loads and stores shift the memory
path history at fetch).  So everything the branch unit computes is a
pure function of the trace, the TAGE/ITTAGE geometry, the RAS depth
and the core seed: per branch, the BTB fetch bubble and whether it
mispredicted, and the run's final branch statistics.

:func:`frontend_stream` records them into a compact
:class:`FrontEndStream`.  The recording is a whole-trace batch: the
branch registers' states after every push come from the trace's
shared :func:`~repro.branch.history.load_histories`, every conditional
branch's TAGE and every indirect branch's ITTAGE indices and tags come
from the predictors' ``hash_columns`` kernels over them, and only the
table state is serial: one loop over the branches calls the unchanged
:meth:`BranchUnit.fetch_branch_fields` / :meth:`BranchUnit.resolve_fields`
with each branch's precomputed hashes.
:meth:`repro.pipeline.core.CoreModel.run` replays the stream instead of
driving a live branch unit, so a campaign that simulates one trace
under many predictor assemblies pays for the front end once.  The
predictable loads' fetch-time histories do not depend on the branch
unit at all, so they are not part of the stream: the core loop's
probes read them from the same shared
:class:`~repro.branch.history.LoadHistories`.

Streams are memoized per trace (:mod:`repro.common.tracememo`) under
their front-end key, ``(tage, ittage, ras, seed)``: every predictor
assembly run with one key shares one stream.
"""

from __future__ import annotations

import numpy as np

from repro.branch.history import load_histories
from repro.branch.ittage import IttageConfig
from repro.branch.tage import TageConfig
from repro.branch.unit import BranchUnit
from repro.common.rng import DeterministicRng
from repro.common.tracememo import trace_memo
from repro.isa.columns import FLAG_IS_CALL, FLAG_TAKEN
from repro.isa.instruction import OP_BRANCH_FIRST, OP_BRANCH_LAST, OpClass
from repro.isa.trace import Trace

_OP_BRANCH_COND = int(OpClass.BRANCH_COND)
_OP_BRANCH_INDIRECT = int(OpClass.BRANCH_INDIRECT)


def branch_stats(unit: BranchUnit) -> dict:
    """The branch block of ``SimResult.extra`` for ``unit``'s run."""
    return {
        "conditional_predictions": unit.conditional_predictions,
        "conditional_mispredictions": unit.conditional_mispredictions,
        "indirect_mispredictions": unit.indirect_mispredictions,
        "return_mispredictions": unit.return_mispredictions,
        "btb_hit_rate": unit.btb.hit_rate,
        "accuracy": unit.accuracy(),
    }


class FrontEndStream:
    """One trace's front-end outcomes, in program order.

    ``branch_codes[b]`` is ``fetch_bubble << 1 | mispredicted`` for the
    ``b``-th branch; ``branch_stats`` is the run's branch block.
    """

    __slots__ = ("branch_codes", "branch_stats")

    def __init__(self) -> None:
        self.branch_codes = bytearray()
        self.branch_stats: dict = {}


def frontend_stream(
    trace: Trace,
    tage_config: TageConfig,
    ittage_config: IttageConfig,
    ras_entries: int,
    seed: int,
    interrupt=None,
    interrupt_interval: int = 1024,
) -> FrontEndStream:
    """The memoized front-end stream of ``trace``, recording it if needed.

    A recording pass polls ``interrupt`` every ``interrupt_interval``
    instructions exactly as the core loop does (raising
    :class:`repro.pipeline.core.SimulationInterrupted`), so a cell
    deadline still fires on a cold trace; an interrupted pass memoizes
    nothing.
    """
    key = (tage_config, ittage_config, ras_entries, seed)
    return trace_memo(
        trace, ("frontend",) + key,
        lambda: _record(trace, key, interrupt, interrupt_interval),
    )


def _record(trace, key, interrupt, interrupt_interval):
    from repro.pipeline.core import SimulationInterrupted

    tage_config, ittage_config, ras_entries, seed = key
    unit = BranchUnit(
        tage_config, ittage_config, ras_entries,
        DeterministicRng(seed, "core"),
    )
    stream = FrontEndStream()
    cols = trace.pack()
    pc = np.frombuffer(cols.pc, dtype=np.uint64)
    op = np.frombuffer(cols.op, dtype=np.uint8)
    flags = np.frombuffer(cols.flags, dtype=np.uint8)
    direction_states, path_states, _ = load_histories(trace).branch_states()

    # How many conditional branches each branch follows: the
    # direction register's state it reads.
    is_cond = op == _OP_BRANCH_COND
    is_branch = (op >= OP_BRANCH_FIRST) & (op <= OP_BRANCH_LAST)
    conds_before = np.cumsum(is_cond) - is_cond

    # Every conditional branch's TAGE and every indirect branch's
    # ITTAGE hashes, as one (indices, tags) row per branch, taken in
    # branch order by the loop below.
    branch_pos = np.flatnonzero(is_branch)
    branch_pc = pc[branch_pos]
    branch_op = op[branch_pos]
    rows = []
    for predictor, kind in (
        (unit.tage, _OP_BRANCH_COND), (unit.ittage, _OP_BRANCH_INDIRECT)
    ):
        which = np.flatnonzero(branch_op == kind)
        indices, tags = predictor.hash_columns(
            branch_pc[which], direction_states,
            conds_before[branch_pos[which]], path_states[which],
        )
        rows.append(zip(zip(*indices.tolist()), zip(*tags.tolist())))
    tage_rows, ittage_rows = rows

    # The serial part: table state, one branch at a time.
    fetch_branch_fields = unit.fetch_branch_fields
    resolve_fields = unit.resolve_fields
    code_append = stream.branch_codes.append
    branch_flags = flags[branch_pos]
    name = trace.name
    next_check = interrupt_interval

    def poll(done: int) -> int:
        """Ask ``interrupt`` at every multiple of the interval up to
        ``done`` instructions, as the core loop does; return the
        instruction index at which the next poll is due."""
        nonlocal next_check
        while next_check <= done:
            if interrupt(next_check):
                raise SimulationInterrupted(name, next_check)
            next_check += interrupt_interval
        return next_check - 1

    due = interrupt_interval - 1 if interrupt else len(cols)
    for i, branch_pc, branch_op, taken, is_call, target in zip(
        branch_pos.tolist(), branch_pc.tolist(), branch_op.tolist(),
        (branch_flags & FLAG_TAKEN).tolist(),
        (branch_flags & FLAG_IS_CALL).tolist(),
        np.frombuffer(cols.target, dtype=np.uint64)[branch_pos].tolist(),
    ):
        if i >= due:
            due = poll(i + 1)
        if branch_op == _OP_BRANCH_COND:
            row = next(tage_rows)
        elif branch_op == _OP_BRANCH_INDIRECT:
            row = next(ittage_rows)
        else:
            row = None
        outcome = fetch_branch_fields(
            branch_pc, branch_op, taken, target, is_call, row
        )
        resolve_fields(branch_pc, taken, target, outcome)
        code_append(outcome.fetch_bubble << 1 | outcome.mispredicted)
    if interrupt:
        poll(len(cols))

    stream.branch_stats = branch_stats(unit)
    return stream
