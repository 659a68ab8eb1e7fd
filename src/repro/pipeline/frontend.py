"""The trace-determined front end, recorded once per trace and replayed.

The timing model is trace driven and updates its branch predictors and
history registers with *actual* outcomes, in program order, at points
no timing decision can move (fetch and resolve of one branch happen in
the same iteration of the core loop; loads and stores shift the memory
path history at fetch).  So everything the branch unit computes is a
pure function of the trace, the TAGE/ITTAGE geometry, the RAS depth
and the core seed:

* per branch -- the BTB fetch bubble and whether it mispredicted;
* per predictable load -- its PC and the fetch-time direction, path
  and memory path histories (the value predictor's probe and deferred
  training both read these);
* the run's final branch statistics.

:func:`frontend_stream` records them into a compact
:class:`FrontEndStream` and memoizes it on the trace.  The recording is
a whole-trace batch, like the functional backend's precompute: the
three history registers' states after every push are numpy columns
(:func:`repro.branch.history.shift_states`), every conditional branch's
TAGE and every indirect branch's ITTAGE indices and tags come from the
predictors' ``hash_columns`` kernels, and the predictable loads'
histories are gathered from the same columns.  Only the table state is
serial: one loop over the branches calls the unchanged
:meth:`BranchUnit.fetch_branch_fields` / :meth:`BranchUnit.resolve_fields`
with each branch's precomputed hashes.
:meth:`repro.pipeline.core.CoreModel.run` replays the stream instead of
driving a live branch unit, so a campaign that simulates one trace
under many predictor assemblies pays for the front end once.  The
stream records raw histories only, so every predictor assembly run
with one front-end key -- ``(tage, ittage, ras, seed)`` -- shares one
stream.

The context-aware components hash their table indices and tags from a
load's PC and these raw histories alone, so their hashes are trace
determined too.  :meth:`FrontEndStream.hash_rows` computes them for a
whole trace at once, with the component's column kernel, the first time
a run binds a component of that table geometry, and keeps them beside
the histories: every later cell with that geometry looks each load's
hashes up by its ordinal (its index among the trace's predictable
loads, carried on the probe and the outcome).

The memo is keyed on the :class:`~repro.isa.trace.Trace` object through
a :class:`weakref.WeakKeyDictionary`, so streams die with their trace
and :func:`clear_frontend_streams` (called by
:func:`repro.harness.runner.clear_caches`) drops them all.
"""

from __future__ import annotations

from array import array
from weakref import WeakKeyDictionary

import numpy as np

from repro.branch.history import (
    LOAD_PATH_BITS,
    MAX_DIRECTION_BITS,
    PATH_BITS,
    path_contributions,
    shift_states,
)
from repro.branch.ittage import IttageConfig
from repro.branch.tage import TageConfig
from repro.branch.unit import BranchUnit
from repro.common.rng import DeterministicRng
from repro.isa.columns import FLAG_IS_CALL, FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
)
from repro.isa.trace import Trace

_OP_BRANCH_COND = int(OpClass.BRANCH_COND)
_OP_BRANCH_INDIRECT = int(OpClass.BRANCH_INDIRECT)

# trace -> front-end key -> the stream recorded under it (one key per
# core seed a campaign runs the trace with, at most a handful).
_streams: WeakKeyDictionary[Trace, dict[tuple, "FrontEndStream"]] = (
    WeakKeyDictionary()
)


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
    ``b``-th branch.  For the ``k``-th predictable load (its *ordinal*),
    ``pc`` holds its PC and ``direction``, ``path`` and ``load_path``
    its fetch-time raw histories.  :meth:`hash_rows` memoizes per-load
    table hashes derived from them.
    """

    __slots__ = (
        "branch_codes", "pc", "direction", "path", "load_path",
        "branch_stats", "_direction_low", "_hash_rows",
    )

    def __init__(self) -> None:
        self.branch_codes = bytearray()
        self.pc = array("Q")
        self.direction: list[int] = []
        self.path = array("I")
        self.load_path = array("I")
        self.branch_stats: dict = {}
        # The low 64 bits of ``direction``, as the recorder computed them.
        self._direction_low = array("Q")
        self._hash_rows: dict[tuple, list] = {}

    def hash_rows(self, key: tuple, build) -> list:
        """One geometry's per-load table hashes, built on first use.

        ``build(pc, direction, path, load_path)`` receives the
        predictable loads' PCs and fetch-time histories as uint64 numpy
        columns (direction cut to its low 64 bits, wider than any
        table reads) and returns one row per load, indexed by ordinal.
        The rows are memoized under ``key`` -- a component's
        ``geometry_key`` -- so every cell of a campaign whose component
        has that geometry shares them.
        """
        rows = self._hash_rows.get(key)
        if rows is None:
            rows = self._hash_rows[key] = build(*(
                np.asarray(column).astype(np.uint64) for column in (
                    self.pc, self._direction_low, self.path, self.load_path,
                )
            ))
        return rows


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
    streams = _streams.setdefault(trace, {})
    stream = streams.get(key)
    if stream is None:
        stream = streams[key] = _record(
            trace, key, interrupt, interrupt_interval
        )
    return stream


def clear_frontend_streams() -> None:
    """Drop every memoized stream (the next run of each trace records)."""
    _streams.clear()


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

    # Each history register's state after every push, and how many
    # pushes each instruction follows.
    is_cond = op == _OP_BRANCH_COND
    is_branch = (op >= OP_BRANCH_FIRST) & (op <= OP_BRANCH_LAST)
    is_memory = (op == OP_LOAD) | (op == OP_STORE)
    direction = shift_states(
        ((flags[is_cond] & FLAG_TAKEN) != 0).astype(np.uint64), 1, 64
    )
    path = shift_states(path_contributions(pc[is_branch]), 2, PATH_BITS)
    load_path = shift_states(
        path_contributions(pc[is_memory]), 2, LOAD_PATH_BITS
    )
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
            branch_pc[which], direction,
            conds_before[branch_pos[which]], path[which],
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

    # The predictable loads' fetch-time histories.  A load is itself a
    # memory event; it sees the memory path before its own push.
    loads = np.flatnonzero((op == OP_LOAD) & ((flags & FLAG_PREDICTABLE) != 0))
    pushes = conds_before[loads]
    stream.pc = array("Q", pc[loads].tobytes())
    stream._direction_low = array("Q", direction[pushes].tobytes())
    # The path registers are 32 bits wide.
    stream.path = array("I", path[np.cumsum(is_branch)[loads]].astype(
        np.uintc).tobytes())
    stream.load_path = array("I", load_path[
        np.cumsum(is_memory)[loads] - 1].astype(np.uintc).tobytes())
    # The full-width direction register, one int per distinct push
    # count (loads between two conditional branches share it): bits
    # 64*j .. 64*j + 63 are its low 64 bits 64*j pushes earlier (state
    # 0 is the empty register).
    starts = np.diff(pushes, prepend=-1) != 0
    first = np.flatnonzero(starts)
    limbs = np.stack([
        direction[np.maximum(pushes[first] - shift, 0)]
        for shift in range(0, MAX_DIRECTION_BITS, 64)
    ], axis=1).astype("<u8").tobytes()
    width = MAX_DIRECTION_BITS // 8
    from_bytes = int.from_bytes
    values = [
        from_bytes(limbs[k:k + width], "little")
        for k in range(0, len(limbs), width)
    ]
    group = np.cumsum(starts) - 1
    stream.direction = [values[k] for k in group.tolist()]
    stream.branch_stats = branch_stats(unit)
    return stream
