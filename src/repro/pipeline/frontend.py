"""The trace-determined front end, recorded once per trace and replayed.

The timing model is trace driven and updates its branch predictors and
history registers with *actual* outcomes, in program order, at points
no timing decision can move (fetch and resolve of one branch happen in
the same iteration of the core loop; loads and stores shift the memory
path history at fetch).  So everything the branch unit computes is a
pure function of the trace, the TAGE/ITTAGE geometry, the RAS depth
and the core seed:

* per branch -- the BTB fetch bubble and whether it mispredicted;
* per predictable load -- the fetch-time direction, path and memory
  path histories and every folded register (the value predictor's
  probe and deferred training both read these);
* the run's final branch statistics.

:func:`frontend_stream` records them in one pass over the packed
columns -- through the unchanged :meth:`BranchUnit.fetch_branch_fields`
/ :meth:`BranchUnit.resolve_fields` and :class:`HistorySet` pushes --
into a compact :class:`FrontEndStream`, and memoizes it on the trace.
:meth:`repro.pipeline.core.CoreModel.run` replays the stream
instead of driving a live branch unit, so a campaign that simulates one
trace under many predictor assemblies pays for the front end once.

Fold values depend on which folds are registered: a stream records the
fold-slot *layout* it was taken under, and serves any predictor whose
layout is a prefix of it (slots are registered branch predictors
first, so the no-VP baseline's layout prefixes every assembly's).  The
memo is keyed on the :class:`~repro.isa.trace.Trace` object through a
:class:`weakref.WeakKeyDictionary`, so streams die with their trace and
:func:`clear_frontend_streams` (called by
:func:`repro.harness.runner.clear_caches`) drops them all.
"""

from __future__ import annotations

from array import array
from weakref import WeakKeyDictionary

from repro.branch.history import HistorySet
from repro.branch.ittage import IttageConfig, IttagePredictor
from repro.branch.tage import TageConfig, TagePredictor
from repro.branch.unit import BranchUnit
from repro.common.rng import DeterministicRng
from repro.isa.columns import FLAG_IS_CALL, FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import OP_BRANCH_FIRST, OP_BRANCH_LAST, OP_LOAD, OP_STORE
from repro.isa.trace import Trace

#: A fold-slot layout: ``(kind, length, width)`` per slot, in slot order
#: (see :meth:`repro.branch.history.HistorySet.fold_layout`).
Layout = tuple[tuple[str, int, int], ...]

# trace -> streams recorded for it (one per front-end key and layout
# family; a handful at most).
_streams: WeakKeyDictionary[Trace, list["FrontEndStream"]] = WeakKeyDictionary()


def _typecode(bits: int) -> str:
    """The narrowest unsigned array typecode holding ``bits`` bits."""
    for code in "BHILQ":
        if array(code).itemsize * 8 >= bits:
            return code
    raise ValueError(f"no array typecode holds {bits}-bit values")


def branch_folds(
    tage_config: TageConfig, ittage_config: IttageConfig
) -> HistorySet:
    """A :class:`HistorySet` carrying exactly the folds a
    :class:`BranchUnit` of this geometry registers, in its order --
    without allocating any predictor tables."""
    histories = HistorySet()
    TagePredictor.register_folds(tage_config, histories)
    IttagePredictor.register_folds(ittage_config, histories)
    return histories


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
    ``b``-th branch.  For the ``k``-th predictable load, ``direction``,
    ``path`` and ``load_path`` hold its fetch-time raw histories and
    ``folds[k * stride : k * stride + stride]`` its folded registers in
    ``layout`` order (``stride == len(layout)``).
    """

    __slots__ = (
        "key", "layout", "stride", "branch_codes", "direction", "path",
        "load_path", "folds", "branch_stats",
    )

    def __init__(self, key: tuple, layout: Layout) -> None:
        self.key = key
        self.layout = layout
        self.stride = len(layout)
        self.branch_codes = bytearray()
        self.direction: list[int] = []
        self.path = array(_typecode(32))
        self.load_path = array(_typecode(32))
        self.folds = array(_typecode(max((w for _, _, w in layout), default=1)))
        self.branch_stats: dict = {}

    def serves(self, key: tuple, layout: Layout) -> bool:
        return self.key == key and self.layout[:len(layout)] == layout


def frontend_stream(
    trace: Trace,
    tage_config: TageConfig,
    ittage_config: IttageConfig,
    ras_entries: int,
    seed: int,
    layout: Layout,
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
    streams = _streams.get(trace)
    if streams:
        for stream in streams:
            if stream.serves(key, layout):
                return stream
    stream = _record(
        trace, key, layout, interrupt, interrupt_interval
    )
    streams = _streams.setdefault(trace, [])
    # Any stream the new one extends is now redundant.
    streams[:] = [s for s in streams if not stream.serves(s.key, s.layout)]
    streams.append(stream)
    return stream


def clear_frontend_streams() -> None:
    """Drop every memoized stream (the next run of each trace records)."""
    _streams.clear()


def _record(trace, key, layout, interrupt, interrupt_interval):
    from repro.pipeline.core import SimulationInterrupted

    tage_config, ittage_config, ras_entries, seed = key
    unit = BranchUnit(
        tage_config, ittage_config, ras_entries,
        DeterministicRng(seed, "core"),
    )
    histories = unit.histories
    histories.register_layout(layout)
    stream = FrontEndStream(key, layout)

    cols = trace.columns
    pcs = cols.pc
    ops = cols.op
    targets = cols.target
    flags_col = cols.flags
    fetch_branch_fields = unit.fetch_branch_fields
    resolve_fields = unit.resolve_fields
    push_memory = histories.push_memory
    folded_values = histories.folded_values
    code_append = stream.branch_codes.append
    direction_append = stream.direction.append
    path_append = stream.path.append
    load_path_append = stream.load_path.append
    folds_extend = stream.folds.extend

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
                direction_append(histories.direction)
                path_append(histories.path)
                load_path_append(histories.load_path)
                folds_extend(folded_values())
            push_memory(pcs[i])
        elif op == OP_STORE:
            push_memory(pcs[i])

    stream.branch_stats = branch_stats(unit)
    return stream
