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

:func:`frontend_stream` records them in one pass over the packed
columns -- through the unchanged :meth:`BranchUnit.fetch_branch_fields`
/ :meth:`BranchUnit.resolve_fields` and :class:`HistorySet` pushes --
into a compact :class:`FrontEndStream`, and memoizes it on the trace.
:meth:`repro.pipeline.core.CoreModel.run` replays the stream
instead of driving a live branch unit, so a campaign that simulates one
trace under many predictor assemblies pays for the front end once.  The
folded history registers TAGE and ITTAGE read are the branch unit's
own; the stream records none of them, so every predictor assembly run
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

from repro.branch.ittage import IttageConfig
from repro.branch.tage import TageConfig
from repro.branch.unit import BranchUnit
from repro.common.rng import DeterministicRng
from repro.isa.columns import FLAG_IS_CALL, FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import OP_BRANCH_FIRST, OP_BRANCH_LAST, OP_LOAD, OP_STORE
from repro.isa.trace import Trace

# trace -> front-end key -> the stream recorded under it (one key per
# core seed a campaign runs the trace with, at most a handful).
_streams: WeakKeyDictionary[Trace, dict[tuple, "FrontEndStream"]] = (
    WeakKeyDictionary()
)


def _typecode(bits: int) -> str:
    """The narrowest unsigned array typecode holding ``bits`` bits."""
    for code in "BHILQ":
        if array(code).itemsize * 8 >= bits:
            return code
    raise ValueError(f"no array typecode holds {bits}-bit values")


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
        "branch_stats", "_hash_rows",
    )

    def __init__(self) -> None:
        self.branch_codes = bytearray()
        self.pc = array("Q")
        self.direction: list[int] = []
        self.path = array(_typecode(32))
        self.load_path = array(_typecode(32))
        self.branch_stats: dict = {}
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
            mask64 = (1 << 64) - 1
            rows = self._hash_rows[key] = build(
                np.array(self.pc, dtype=np.uint64),
                np.fromiter(
                    (d & mask64 for d in self.direction), dtype=np.uint64,
                    count=len(self.direction),
                ),
                np.array(self.path, dtype=np.uint64),
                np.array(self.load_path, dtype=np.uint64),
            )
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
    histories = unit.histories
    stream = FrontEndStream()

    cols = trace.columns
    pcs = cols.pc
    ops = cols.op
    targets = cols.target
    flags_col = cols.flags
    fetch_branch_fields = unit.fetch_branch_fields
    resolve_fields = unit.resolve_fields
    push_memory = histories.push_memory
    code_append = stream.branch_codes.append
    pc_append = stream.pc.append
    direction_append = stream.direction.append
    path_append = stream.path.append
    load_path_append = stream.load_path.append

    name = trace.name
    next_check = interrupt_interval if interrupt else None
    for i in range(len(cols)):
        if next_check is not None and i + 1 >= next_check:
            next_check += interrupt_interval
            if interrupt(i + 1):
                raise SimulationInterrupted(name, i + 1)
        op = ops[i]
        if OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST:
            pc = pcs[i]
            flags = flags_col[i]
            taken = flags & FLAG_TAKEN
            target = targets[i]
            outcome = fetch_branch_fields(
                pc, op, taken, target, flags & FLAG_IS_CALL
            )
            resolve_fields(pc, taken, target, outcome)
            code_append(outcome.fetch_bubble << 1 | outcome.mispredicted)
        elif op == OP_LOAD:
            if flags_col[i] & FLAG_PREDICTABLE:
                pc_append(pcs[i])
                direction_append(histories.direction)
                path_append(histories.path)
                load_path_append(histories.load_path)
            push_memory(pcs[i])
        elif op == OP_STORE:
            push_memory(pcs[i])

    stream.branch_stats = branch_stats(unit)
    return stream
