"""Vectorized (numpy batch) functional predictor evaluation.

The one functional evaluator, behind
:func:`repro.harness.functional.run_functional`: the trace-derived
inputs of every predictable load -- history register states, table
indices and tags, store schedules -- are computed for the *whole trace
at once* as numpy batch operations over the packed
:class:`~repro.isa.columns.TraceColumns`, and only the residual
serial dependency (confident predictions feeding training, which feeds
the next prediction) runs as a tight Python loop over unboxed ints.
That loop reads and writes the live predictor tables: a
:class:`repro.predictors.table.BankedTable` keeps one plain list per
entry field per bank, so the loop binds those columns once and rebinds
only its multi-bank flags when table fusion fuses or reverts.  A
vector run therefore leaves the predictor in exactly the state a pure
object run would have, with nothing to copy back.

The per-instruction object interpreter in
``tests/oracles/functional_loop.py`` is the bit-exact reference: for
every supported assembly,
:func:`run_functional_vec` produces a
:class:`~repro.harness.functional.FunctionalResult` equal field-for-field
to the oracle's, with equal final table state
(``tests/test_columnar_equivalence.py`` and
``tests/test_fuzz_equivalence.py`` enforce this).

Why this is bit-exact and not merely close:

* Histories are pure functions of the trace prefix (branch outcomes /
  PC bits), never of predictor state, so register states at each load
  are precomputable.  The folded-XOR index/tag hashes distribute over
  XOR chunk-wise, which lets the scalar reference hashes be replayed
  as whole-column numpy expressions.
* FPC confidence bumps draw from per-component deterministic RNG
  streams in state-dependent order, so they cannot be batched; the
  residual loop performs them through the live component RNGs in
  exactly the oracle's order.
* Epoch ticks are batched between loads: boundary effects (accuracy
  monitor / fusion epochs) are only observable at the next predicted
  load, so firing them lazily is equivalent.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from weakref import WeakKeyDictionary

import numpy as np

from repro.common.bits import fold_bits_np, shr_np
from repro.composite.accuracy_monitor import (
    InfinitePcAm,
    MAm,
    NullAccuracyMonitor,
    PcAm,
    _PcAmEntry,
)
from repro.composite.composite import CompositePredictor
from repro.composite.fusion import FusionController
from repro.harness.functional import FunctionalResult
from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor

_MASK49 = (1 << 49) - 1
_TAG_BITS = 14
_PC_AM_TAG_BITS = 10

#: OpClass numeric values (kept in lockstep with repro.isa.instruction;
#: TraceColumns stores the raw enum value in the ``op`` column).
_OP_LOAD = 6
_OP_STORE = 7
_OP_BRANCH_COND = 8
_OP_BRANCH_RETURN = 11

#: Slot order of the canonical components in the residual interpreter.
_SLOT_NAMES = ("lvp", "sap", "cvp", "cap")
_SLOT_TYPES = {
    "lvp": LvpPredictor,
    "sap": SapPredictor,
    "cvp": CvpPredictor,
    "cap": CapPredictor,
}
_MONITOR_TYPES = (NullAccuracyMonitor, MAm, PcAm, InfinitePcAm)

#: ``i.bit_length() - 1`` over the uint8 domain of the size column.
_SIZE_LOG2 = np.array([i.bit_length() - 1 for i in range(256)], dtype=np.int64)


# ----------------------------------------------------------------------
# Vectorized PC hashes (bit-identical to repro.common.hashing on every
# element; the CVP and CAP column hashes live beside their scalar forms
# in repro.predictors)
# ----------------------------------------------------------------------


def _pc_index_np(pc: np.ndarray, index_bits: int) -> np.ndarray:
    """Element-wise ``hashing.pc_index`` (no history, no salt)."""
    if index_bits == 0:
        return np.zeros_like(pc)
    base = (
        shr_np(pc, 2)
        ^ shr_np(pc, 2 + index_bits)
        ^ shr_np(pc, 2 + 2 * index_bits + 3)
    )
    return base & np.uint64((1 << index_bits) - 1)


def _pc_tag_np(pc: np.ndarray, tag_bits: int) -> np.ndarray:
    """Element-wise ``hashing.pc_tag`` (no history, no salt)."""
    base = (
        shr_np(pc, 2)
        ^ shr_np(pc, 2 + tag_bits)
        ^ shr_np(pc, 2 + 2 * tag_bits + 1)
    )
    return fold_bits_np(base, tag_bits)


def _shift_states(contribs: np.ndarray, shift: int, width: int) -> np.ndarray:
    """Prefix states of a shift register, one lane per push.

    ``states[k]`` is the register value after the first ``k`` pushes of
    ``reg = (reg << shift) | contribs[k]``, keeping the low ``width``
    bits, starting from zero.  Computed as ``width / shift``
    shifted-OR passes over the contribution column instead of a Python
    loop over pushes.
    """
    n = len(contribs)
    states = np.zeros(n + 1, dtype=np.uint64)
    for j in range((width + shift - 1) // shift):
        if j >= n:
            break
        states[j + 1 :] |= contribs[: n - j] << np.uint64(j * shift)
    return states & np.uint64((1 << width) - 1)


def _path_contribution_np(pc: np.ndarray) -> np.ndarray:
    """Element-wise path-history contribution (two PC bits), matching
    ``HistorySet._push_path`` / ``push_memory``."""
    return ((pc >> np.uint64(2)) ^ (pc >> np.uint64(5)) ^ (pc >> np.uint64(9))) & np.uint64(0b11)


# ----------------------------------------------------------------------
# Whole-trace precompute
# ----------------------------------------------------------------------


class _LoadBatch:
    """Everything the residual loop needs, precomputed per load."""

    __slots__ = (
        "n_instructions", "pos", "pc", "value", "addr49", "size_log2",
        "pc_np", "direction_np", "path_np", "load_path_np",
        "store_pos", "store_addr", "store_size", "store_value",
    )


def precompute_load_batch(
    columns,
    need_direction: bool,
    need_path: bool,
    need_load_path: bool,
) -> _LoadBatch:
    """Vectorized pass over packed columns: per-predictable-load PCs,
    architectural outcomes, history register states at probe time, and
    the store schedule.  History registers are reconstructed only to
    the width any consumer reads (CVP masks direction to <= 32 bits;
    path/load-path registers are 32 bits wide architecturally)."""
    pc = np.frombuffer(columns.pc, dtype=np.uint64)
    op = np.frombuffer(columns.op, dtype=np.uint8)
    addr = np.frombuffer(columns.addr, dtype=np.uint64)
    size = np.frombuffer(columns.size, dtype=np.uint8)
    value = np.frombuffer(columns.value, dtype=np.uint64)
    flags = np.frombuffer(columns.flags, dtype=np.uint8)

    is_cond = op == _OP_BRANCH_COND
    is_branch = (op >= _OP_BRANCH_COND) & (op <= _OP_BRANCH_RETURN)
    is_mem = (op == _OP_LOAD) | (op == _OP_STORE)
    load_pos = np.nonzero((flags & FLAG_PREDICTABLE) != 0)[0]

    batch = _LoadBatch()
    batch.n_instructions = len(pc)
    batch.pos = load_pos.tolist()
    lpc = pc[load_pos]
    batch.pc_np = lpc
    batch.pc = lpc.tolist()
    batch.value = value[load_pos].tolist()
    batch.addr49 = (addr[load_pos] & np.uint64(_MASK49)).tolist()
    lsize = size[load_pos]
    # size.bit_length() - 1, via a lookup over the uint8 size domain.
    batch.size_log2 = _SIZE_LOG2[lsize].tolist()

    store_pos = np.nonzero(op == _OP_STORE)[0]
    batch.store_pos = store_pos.tolist()
    batch.store_addr = addr[store_pos].tolist()
    batch.store_size = size[store_pos].tolist()
    batch.store_value = value[store_pos].tolist()

    empty = np.zeros(0, dtype=np.uint64)
    if need_direction:
        cond_pos = np.nonzero(is_cond)[0]
        taken = (flags[cond_pos] & FLAG_TAKEN).astype(np.uint64)
        states = _shift_states(taken, 1, 32)
        cum_cond = np.cumsum(is_cond)
        batch.direction_np = (
            states[cum_cond[load_pos]] if len(load_pos) else empty
        )
    else:
        batch.direction_np = None
    if need_path:
        br_pos = np.nonzero(is_branch)[0]
        contribs = _path_contribution_np(pc[br_pos])
        states = _shift_states(contribs, 2, 32)
        cum_br = np.cumsum(is_branch)
        batch.path_np = states[cum_br[load_pos]] if len(load_pos) else empty
    else:
        batch.path_np = None
    if need_load_path:
        mem_pos = np.nonzero(is_mem)[0]
        contribs = _path_contribution_np(pc[mem_pos])
        states = _shift_states(contribs, 2, 32)
        cum_mem = np.cumsum(is_mem)
        # A load is itself a memory event; its probe sees the register
        # *before* its own push, hence the -1 on the inclusive cumsum.
        batch.load_path_np = (
            states[cum_mem[load_pos] - 1] if len(load_pos) else empty
        )
    else:
        batch.load_path_np = None
    return batch


def _pc_am_hashes_np(
    pc: np.ndarray, entries: int
) -> tuple[np.ndarray, np.ndarray]:
    """(index, tag) columns matching the PC-AM paper hashes."""
    pcx = pc >> np.uint64(2)
    index = (pcx ^ (pc >> np.uint64(8))) & np.uint64(entries - 1)
    tag = fold_bits_np(pcx ^ (pc >> np.uint64(12)), _PC_AM_TAG_BITS)
    return index, tag


# ----------------------------------------------------------------------
# Per-trace precompute cache
# ----------------------------------------------------------------------
#
# Load batches and hash columns are pure functions of the trace columns
# and the table geometry -- never of predictor state -- so sweeps that
# evaluate many configs / seeds / repeats over the same trace can share
# them.  Keyed weakly on the Trace object (as the timing model's
# front-end streams are), so a trace's entries die with it and
# clear_precompute_cache (called by repro.harness.runner.clear_caches)
# drops them all.  A search holds every trace it touches, each with a
# dozen table geometries, so hash columns are kept as packed arrays
# rather than lists of ints (one or two bytes per load, not ~36).

_TRACE_CACHE: WeakKeyDictionary[Trace, tuple[dict, dict]] = WeakKeyDictionary()


def clear_precompute_cache() -> None:
    """Drop every memoized load batch and hash column."""
    _TRACE_CACHE.clear()


def _trace_cache(trace) -> tuple[dict, dict]:
    """Return ``(batches, hashes)`` memo dicts for this trace."""
    slot = _TRACE_CACHE.get(trace)
    if slot is None:
        slot = _TRACE_CACHE[trace] = ({}, {})
    return slot


def _cached_batch(trace, need_direction, need_path, need_load_path):
    batches, _ = _trace_cache(trace)
    key = (need_direction, need_path, need_load_path)
    batch = batches.get(key)
    if batch is None:
        batch = batches[key] = precompute_load_batch(
            trace.columns, need_direction, need_path, need_load_path
        )
    return batch


def _packed(*columns: np.ndarray) -> tuple[array, ...]:
    """Hash columns as packed arrays of the narrowest unsigned type that
    holds their values."""
    out = []
    for column in columns:
        dtype = np.min_scalar_type(int(column.max()) if column.size else 0)
        out.append(array(dtype.char, column.astype(dtype).tobytes()))
    return tuple(out)


def _cached_hashes(trace, key, compute):
    _, hashes = _trace_cache(trace)
    h = hashes.get(key)
    if h is None:
        h = hashes[key] = compute()
    return h


def _cached_pc_hashes(trace, pc_np, index_bits):
    return _cached_hashes(trace, ("pc", index_bits), lambda: _packed(
        _pc_index_np(pc_np, index_bits), _pc_tag_np(pc_np, _TAG_BITS)
    ))


def _cached_cvp_hashes(trace, component, batch):
    return _cached_hashes(trace, component.geometry_key, lambda: [
        _packed(index, tag) for index, tag in component.hash_columns(
            batch.pc_np, batch.direction_np, batch.path_np
        )
    ])


def _cached_cap_hashes(trace, component, batch):
    return _cached_hashes(trace, component.geometry_key, lambda: _packed(
        *component.hash_columns(batch.pc_np, batch.load_path_np)
    ))


def _cached_pc_am_hashes(trace, pc_np, entries):
    return _cached_hashes(
        trace, ("pcam", entries),
        lambda: _packed(*_pc_am_hashes_np(pc_np, entries)),
    )


# ----------------------------------------------------------------------
# Support predicate
# ----------------------------------------------------------------------


def vector_unsupported_reason(trace, predictor) -> str | None:
    """Why ``run_functional_vec`` cannot evaluate this pair, or None.

    The vector backend replays component/monitor/fusion semantics by
    exact type; subclasses or third-party components could override
    behaviour it has inlined, so anything but the known concrete types
    is rejected.
    """
    if getattr(trace, "columns", None) is None:
        return "trace has no packed columns"
    if type(predictor) is CompositePredictor:
        for name, component in predictor.components.items():
            expected = _SLOT_TYPES.get(name)
            if expected is None or type(component) is not expected:
                return f"unsupported component {name!r} ({type(component).__name__})"
        if type(predictor.monitor) not in _MONITOR_TYPES:
            return f"unsupported accuracy monitor {type(predictor.monitor).__name__}"
        if predictor.fusion is not None and type(predictor.fusion) is not FusionController:
            return f"unsupported fusion controller {type(predictor.fusion).__name__}"
        return None
    return f"unsupported predictor type {type(predictor).__name__}"


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_functional_vec(trace, predictor) -> FunctionalResult:
    """Evaluate a supported composite over a packed trace.

    Raises :class:`ValueError` with :func:`vector_unsupported_reason`'s
    text for any other trace/predictor pair.
    """
    reason = vector_unsupported_reason(trace, predictor)
    if reason is not None:
        raise ValueError(f"vector backend unsupported: {reason}")
    mem = (
        trace.initial_memory.copy()
        if isinstance(trace.initial_memory, MemoryImage)
        else MemoryImage()
    )
    result = FunctionalResult(workload=trace.name, instructions=len(trace))
    _run_composite(trace, predictor, mem, result)
    return result


# ----------------------------------------------------------------------
# Composite residual interpreter
# ----------------------------------------------------------------------


def _run_composite(trace, predictor, mem, result):
    components = predictor.components
    lvp = components.get("lvp")
    sap = components.get("sap")
    cvp = components.get("cvp")
    cap = components.get("cap")
    monitor = predictor.monitor
    fusion = predictor.fusion
    stats = predictor.stats
    smart = predictor.config.smart_training
    epoch_len = predictor.config.epoch_instructions
    names4 = _SLOT_NAMES
    slot_of = {"lvp": 0, "sap": 1, "cvp": 2, "cap": 3}
    sel_slots = tuple(slot_of[n] for n in predictor._selection_order)
    trn_slots = tuple(slot_of[n] for n in predictor._training_order)

    # -- whole-trace precompute (shared across runs on this trace) -----
    batch = _cached_batch(
        trace, cvp is not None, cvp is not None, cap is not None
    )
    pos = batch.pos
    n_loads = len(pos)
    lpcs = batch.pc
    lvals = batch.value
    la49 = batch.addr49
    lslog = batch.size_log2
    spos = batch.store_pos
    s_addr = batch.store_addr
    s_size = batch.store_size
    s_val = batch.store_value
    n_stores = len(spos)
    n_instr = batch.n_instructions

    # The live tables: bank-0 columns stay valid for a table's lifetime
    # (fusion flushes and re-banks in place), so only the multi-bank
    # flags below follow fusion.
    pc_np = batch.pc_np
    if lvp is not None:
        lvp_tab = lvp._table
        lvp_t0, lvp_v0, lvp_c0 = lvp_tab.banks[0]
        li, lt = _cached_pc_hashes(trace, pc_np, lvp_tab.index_bits)
        lvp_thr = lvp.confidence_threshold
        lvp_probs = lvp._float_probs
        lvp_cmax = lvp._conf_max
        lvp_coin = lvp._rng.coin
        lvp_bump = lvp._bump_confidence
    if sap is not None:
        sap_tab = sap._table
        sap_t0, sap_la0, sap_st0, sap_sz0, sap_c0 = sap_tab.banks[0]
        si, st_ = _cached_pc_hashes(trace, pc_np, sap_tab.index_bits)
        sap_thr = sap.confidence_threshold
        sap_probs = sap._float_probs
        sap_cmax = sap._conf_max
        sap_coin = sap._rng.coin
        sap_bump = sap._bump_confidence
    if cvp is not None:
        # Fusion grants and revokes banks on all three tables together.
        cv0_tab, cv1_tab, cv2_tab = cvp._tables()
        cv0_t0, cv0_v0, cv0_c0 = cv0_tab.banks[0]
        cv1_t0, cv1_v0, cv1_c0 = cv1_tab.banks[0]
        cv2_t0, cv2_v0, cv2_c0 = cv2_tab.banks[0]
        cvp_h = _cached_cvp_hashes(trace, cvp, batch)
        (cv0i, cv0t), (cv1i, cv1t), (cv2i, cv2t) = cvp_h
        cvp_thr = cvp.confidence_threshold
        cvp_probs = cvp._float_probs
        cvp_cmax = cvp._conf_max
        cvp_coin = cvp._rng.coin
        cvp_bump = cvp._bump_confidence
    if cap is not None:
        cap_tab = cap._table
        cap_t0, cap_a0, cap_sz0, cap_c0 = cap_tab.banks[0]
        cpi, cpt = _cached_cap_hashes(trace, cap, batch)
        cap_thr = cap.confidence_threshold
        cap_probs = cap._float_probs
        cap_cmax = cap._conf_max
        cap_coin = cap._rng.coin
        cap_bump = cap._bump_confidence

    # -- monitor bindings ----------------------------------------------
    mon_type = type(monitor)
    m_mam = mon_type is MAm
    m_pc = mon_type is PcAm
    m_inf = mon_type is InfinitePcAm
    if m_mam:
        mam_sil = monitor._silenced
        mam_pred = monitor._predictions
        mam_mis = monitor._mispredictions
    if m_pc:
        am_table = monitor._table
        am_thr = monitor.accuracy_threshold
        am_names = monitor._names
        ami, amt = _cached_pc_am_hashes(trace, pc_np, monitor.entries)
    if m_inf:
        am_map = monitor._map
        am_thr = monitor.accuracy_threshold
        am_names = monitor._names

    # -- fusion bindings -----------------------------------------------
    if fusion is not None:
        f_used = fusion._epoch_used
        donors = fusion.state.donors if fusion.state.fused else ()
    else:
        donors = ()
    act_lvp = lvp is not None and "lvp" not in donors
    act_sap = sap is not None and "sap" not in donors
    act_cvp = cvp is not None and "cvp" not in donors
    act_cap = cap is not None and "cap" not in donors
    lvp_multi = lvp is not None and lvp_tab.num_banks > 1
    sap_multi = sap is not None and sap_tab.num_banks > 1
    cvp_multi = cvp is not None and cv0_tab.num_banks > 1
    cap_multi = cap is not None and cap_tab.num_banks > 1

    # -- memory fast paths ---------------------------------------------
    mem_words = mem._words
    mw_get = mem_words.get
    mem_read = mem.read
    mem_write = mem.write

    # -- accumulators ---------------------------------------------------
    cc = [0, 0, 0, 0]   # confident per slot
    ck = [0, 0, 0, 0]   # correct-when-confident per slot
    ch = [0, 0, 0, 0]   # chosen per slot
    cs = [0, 0, 0, 0]   # sole-predictor per slot
    hist = [0, 0, 0, 0, 0]
    r_pred = r_corr = r_multi = r_dis = 0
    st_cu = st_iu = st_te = st_ops = 0
    cf = [False, False, False, False]
    okf = [False, False, False, False]
    sqf = [False, False, False, False]
    vals = [0, 0, 0, 0]

    iie = predictor._instructions_in_epoch
    prev_tick = 0
    sptr = 0
    # Per-load epoch accounting is only needed if a boundary can fire
    # inside this trace; otherwise the finalize block's bulk
    # ``iie += n_instructions`` is equivalent.
    track = iie + n_instr >= epoch_len

    rep0 = repeat(0)
    rows = zip(
        pos,
        lpcs,
        lvals,
        la49,
        lslog,
        li if lvp is not None else rep0,
        lt if lvp is not None else rep0,
        si if sap is not None else rep0,
        st_ if sap is not None else rep0,
        cv0i if cvp is not None else rep0,
        cv0t if cvp is not None else rep0,
        cv1i if cvp is not None else rep0,
        cv1t if cvp is not None else rep0,
        cv2i if cvp is not None else rep0,
        cv2t if cvp is not None else rep0,
        cpi if cap is not None else rep0,
        cpt if cap is not None else rep0,
        ami if m_pc else rep0,
        amt if m_pc else rep0,
    )
    for (p, pc_j, lval, a49, sl, li_j, lt_j, si_j, st_j, c0i_j, c0t_j,
         c1i_j, c1t_j, c2i_j, c2t_j, cpi_j, cpt_j, ami_j, amt_j) in rows:
        # -- epoch clock (ticks batched between loads) -----------------
        if track:
            iie += p - prev_tick
            prev_tick = p
            if iie >= epoch_len:
                if fusion is not None:
                    mark = (
                        fusion.state.fusions_performed,
                        fusion.state.reversions_performed,
                    )
                while iie >= epoch_len:
                    iie -= epoch_len
                    monitor.end_epoch()
                    if fusion is not None:
                        fusion.end_epoch()
                if fusion is not None:
                    f_used = fusion._epoch_used
                    if mark != (
                        fusion.state.fusions_performed,
                        fusion.state.reversions_performed,
                    ):
                        # Banks were flushed, granted or revoked in
                        # place: refresh the donor and multi-bank flags.
                        donors = (
                            fusion.state.donors if fusion.state.fused else ()
                        )
                        act_lvp = lvp is not None and "lvp" not in donors
                        act_sap = sap is not None and "sap" not in donors
                        act_cvp = cvp is not None and "cvp" not in donors
                        act_cap = cap is not None and "cap" not in donors
                        lvp_multi = lvp is not None and lvp_tab.num_banks > 1
                        sap_multi = sap is not None and sap_tab.num_banks > 1
                        cvp_multi = cvp is not None and cv0_tab.num_banks > 1
                        cap_multi = cap is not None and cap_tab.num_banks > 1

        # -- apply older stores ----------------------------------------
        while sptr < n_stores and spos[sptr] < p:
            a = s_addr[sptr]
            sz = s_size[sptr]
            if sz == 8 and not a & 7:
                mem_words[a >> 3] = s_val[sptr]
            else:
                mem_write(a, sz, s_val[sptr])
            sptr += 1

        # -- probe every active component ------------------------------
        cf[0] = cf[1] = cf[2] = cf[3] = False
        if act_lvp:
            i = li_j
            t = lt_j
            if not lvp_multi:
                if lvp_t0[i] == t and lvp_c0[i] >= lvp_thr:
                    cf[0] = True
                    vals[0] = lvp_v0[i]
            else:
                bk = lvp_tab.find(i, t)
                if bk is not None and bk[2][i] >= lvp_thr:
                    cf[0] = True
                    vals[0] = bk[1][i]
        if act_sap:
            i = si_j
            t = st_j
            a = -1
            if not sap_multi:
                if sap_t0[i] == t and sap_c0[i] >= sap_thr:
                    stv = sap_st0[i]
                    a = (
                        sap_la0[i] + (stv if stv < 512 else stv - 1024)
                    ) & _MASK49
                    sz = 1 << sap_sz0[i]
            else:
                bk = sap_tab.find(i, t)
                if bk is not None and bk[4][i] >= sap_thr:
                    stv = bk[2][i]
                    a = (
                        bk[1][i] + (stv if stv < 512 else stv - 1024)
                    ) & _MASK49
                    sz = 1 << bk[3][i]
            if a >= 0:
                cf[1] = True
                vals[1] = (
                    mw_get(a >> 3, 0)
                    if sz == 8 and not a & 7
                    else mem_read(a, sz)
                )
        if act_cvp:
            # Longest-history table first; a tag match that is not
            # confident does NOT stop the search (oracle semantics).
            found = False
            i = c2i_j
            t = c2t_j
            if cvp_multi:
                bk = cv2_tab.find(i, t)
                if bk is not None and bk[2][i] >= cvp_thr:
                    vals[2] = bk[1][i]
                    found = True
            elif cv2_t0[i] == t and cv2_c0[i] >= cvp_thr:
                vals[2] = cv2_v0[i]
                found = True
            if not found:
                i = c1i_j
                t = c1t_j
                if cvp_multi:
                    bk = cv1_tab.find(i, t)
                    if bk is not None and bk[2][i] >= cvp_thr:
                        vals[2] = bk[1][i]
                        found = True
                elif cv1_t0[i] == t and cv1_c0[i] >= cvp_thr:
                    vals[2] = cv1_v0[i]
                    found = True
            if not found:
                i = c0i_j
                t = c0t_j
                if cvp_multi:
                    bk = cv0_tab.find(i, t)
                    if bk is not None and bk[2][i] >= cvp_thr:
                        vals[2] = bk[1][i]
                        found = True
                elif cv0_t0[i] == t and cv0_c0[i] >= cvp_thr:
                    vals[2] = cv0_v0[i]
                    found = True
            cf[2] = found
        if act_cap:
            i = cpi_j
            t = cpt_j
            a = -1
            if not cap_multi:
                if cap_t0[i] == t and cap_c0[i] >= cap_thr:
                    a = cap_a0[i]
                    sz = 1 << cap_sz0[i]
            else:
                bk = cap_tab.find(i, t)
                if bk is not None and bk[3][i] >= cap_thr:
                    a = bk[1][i]
                    sz = 1 << bk[2][i]
            if a >= 0:
                cf[3] = True
                vals[3] = (
                    mw_get(a >> 3, 0)
                    if sz == 8 and not a & 7
                    else mem_read(a, sz)
                )

        count = cf[0] + cf[1] + cf[2] + cf[3]
        hist[count] += 1
        chosen = -1
        if count:
            # -- per-component bookkeeping + AM squash -----------------
            if m_pc:
                e = am_table[ami_j]
                am_entry = (
                    e if e is not None and e.tag == amt_j else None
                )
            elif m_inf:
                am_entry = am_map.get(pc_j)
            else:
                am_entry = None
            sole = count == 1
            first = -1
            diff = False
            for s in range(4):
                if not cf[s]:
                    continue
                cc[s] += 1
                if sole:
                    cs[s] += 1
                v = vals[s]
                ok = v == lval
                okf[s] = ok
                if ok:
                    ck[s] += 1
                if first < 0:
                    first = v
                elif v != first:
                    diff = True
                if m_mam:
                    sqf[s] = mam_sil[names4[s]]
                elif am_entry is not None:
                    nm = names4[s]
                    c = am_entry.correct[nm]
                    tot = c + am_entry.incorrect[nm]
                    sqf[s] = (1.0 if not tot else c / tot) < am_thr
                else:
                    sqf[s] = False
            if count >= 2:
                r_multi += 1
                if diff:
                    r_dis += 1

            # -- selection ---------------------------------------------
            for s in sel_slots:
                if cf[s] and not sqf[s]:
                    chosen = s
                    break
            if chosen >= 0:
                r_pred += 1
                ch[chosen] += 1
                used_ok = okf[chosen]
                if used_ok:
                    r_corr += 1
                    st_cu += 1
                else:
                    st_iu += 1
                if fusion is not None:
                    f_used[names4[chosen]] += 1

            # -- accuracy monitor record -------------------------------
            if m_mam:
                if chosen >= 0:
                    nm = names4[chosen]
                    mam_pred[nm] += 1
                    if not used_ok:
                        mam_mis[nm] += 1
            elif m_pc or m_inf:
                if am_entry is None:
                    if chosen >= 0 and not used_ok:
                        if m_pc:
                            am_table[ami_j] = _PcAmEntry(amt_j, am_names)
                        else:
                            am_map[pc_j] = _PcAmEntry(0, am_names)
                else:
                    corr_d = am_entry.correct
                    inc_d = am_entry.incorrect
                    for s in range(4):
                        if cf[s]:
                            if okf[s]:
                                corr_d[names4[s]] += 1
                            else:
                                inc_d[names4[s]] += 1
                    if any(v >= 128 for v in corr_d.values()) or any(
                        v >= 128 for v in inc_d.values()
                    ):
                        for nm in corr_d:
                            corr_d[nm] >>= 1
                            inc_d[nm] >>= 1

            # -- penalize wrong confident address predictors -----------
            if cf[1] and not okf[1]:
                i = si_j
                t = st_j
                if not sap_multi:
                    if sap_t0[i] == t:
                        sap_c0[i] = 0
                else:
                    bk = sap_tab.find(i, t)
                    if bk is not None:
                        bk[4][i] = 0
            if cf[3] and not okf[3]:
                i = cpi_j
                t = cpt_j
                if not cap_multi:
                    if cap_t0[i] == t:
                        cap_c0[i] = 0
                else:
                    bk = cap_tab.find(i, t)
                    if bk is not None:
                        bk[3][i] = 0

        # -- training policy (Section V-D) -----------------------------
        st_te += 1
        if count and smart:
            fc = -1
            for s in trn_slots:
                if cf[s] and okf[s]:
                    fc = s
                    break
            tr0 = (cf[0] and not okf[0]) or fc == 0
            tr1 = (cf[1] and not okf[1]) or fc == 1
            tr2 = (cf[2] and not okf[2]) or fc == 2
            tr3 = (cf[3] and not okf[3]) or fc == 3
            inv_sap = cf[1] and okf[1] and fc != 1
        else:
            # train-all (also smart training's no-confident rule)
            tr0 = act_lvp
            tr1 = act_sap
            tr2 = act_cvp
            tr3 = act_cap
            inv_sap = False

        if tr0:
            st_ops += 1
            i = li_j
            t = lt_j
            if not lvp_multi:
                if lvp_t0[i] == t:
                    if lvp_v0[i] == lval:
                        lvl = lvp_c0[i]
                        if lvl < lvp_cmax:
                            pr = lvp_probs[lvl]
                            if pr >= 1.0 or lvp_coin(pr):
                                lvp_c0[i] = lvl + 1
                    else:
                        lvp_v0[i] = lval
                        lvp_c0[i] = 0
                else:
                    lvp_t0[i] = t
                    lvp_v0[i] = lval
                    lvp_c0[i] = 0
            else:
                bk, hit = lvp_tab.find_or_victim(i, t)
                if hit and bk[1][i] == lval:
                    lvp_bump(bk[2], i)
                else:
                    bk[0][i] = t
                    bk[1][i] = lval
                    bk[2][i] = 0
        if tr1:
            st_ops += 1
            i = si_j
            t = st_j
            if not sap_multi:
                if sap_t0[i] == t:
                    ns = (a49 - sap_la0[i]) & 1023
                    if ns == sap_st0[i]:
                        lvl = sap_c0[i]
                        if lvl < sap_cmax:
                            pr = sap_probs[lvl]
                            if pr >= 1.0 or sap_coin(pr):
                                sap_c0[i] = lvl + 1
                    else:
                        sap_st0[i] = ns
                        sap_c0[i] = 0
                    sap_la0[i] = a49
                    sap_sz0[i] = sl
                else:
                    sap_t0[i] = t
                    sap_la0[i] = a49
                    sap_st0[i] = 0
                    sap_sz0[i] = sl
                    sap_c0[i] = 0
            else:
                bk, hit = sap_tab.find_or_victim(i, t)
                if hit:
                    ns = (a49 - bk[1][i]) & 1023
                    if ns == bk[2][i]:
                        sap_bump(bk[4], i)
                    else:
                        bk[2][i] = ns
                        bk[4][i] = 0
                    bk[1][i] = a49
                    bk[3][i] = sl
                else:
                    bk[0][i] = t
                    bk[1][i] = a49
                    bk[2][i] = 0
                    bk[3][i] = sl
                    bk[4][i] = 0
        if tr2:
            st_ops += 1
            # Tables 0, 1, 2 in order: they share the component RNG, so
            # the bump order is architectural.
            i = c0i_j
            t = c0t_j
            if not cvp_multi:
                if cv0_t0[i] == t and cv0_v0[i] == lval:
                    lvl = cv0_c0[i]
                    if lvl < cvp_cmax:
                        pr = cvp_probs[lvl]
                        if pr >= 1.0 or cvp_coin(pr):
                            cv0_c0[i] = lvl + 1
                else:
                    cv0_t0[i] = t
                    cv0_v0[i] = lval
                    cv0_c0[i] = 0
            else:
                bk, hit = cv0_tab.find_or_victim(i, t)
                if hit and bk[1][i] == lval:
                    cvp_bump(bk[2], i)
                else:
                    bk[0][i] = t
                    bk[1][i] = lval
                    bk[2][i] = 0
            i = c1i_j
            t = c1t_j
            if not cvp_multi:
                if cv1_t0[i] == t and cv1_v0[i] == lval:
                    lvl = cv1_c0[i]
                    if lvl < cvp_cmax:
                        pr = cvp_probs[lvl]
                        if pr >= 1.0 or cvp_coin(pr):
                            cv1_c0[i] = lvl + 1
                else:
                    cv1_t0[i] = t
                    cv1_v0[i] = lval
                    cv1_c0[i] = 0
            else:
                bk, hit = cv1_tab.find_or_victim(i, t)
                if hit and bk[1][i] == lval:
                    cvp_bump(bk[2], i)
                else:
                    bk[0][i] = t
                    bk[1][i] = lval
                    bk[2][i] = 0
            i = c2i_j
            t = c2t_j
            if not cvp_multi:
                if cv2_t0[i] == t and cv2_v0[i] == lval:
                    lvl = cv2_c0[i]
                    if lvl < cvp_cmax:
                        pr = cvp_probs[lvl]
                        if pr >= 1.0 or cvp_coin(pr):
                            cv2_c0[i] = lvl + 1
                else:
                    cv2_t0[i] = t
                    cv2_v0[i] = lval
                    cv2_c0[i] = 0
            else:
                bk, hit = cv2_tab.find_or_victim(i, t)
                if hit and bk[1][i] == lval:
                    cvp_bump(bk[2], i)
                else:
                    bk[0][i] = t
                    bk[1][i] = lval
                    bk[2][i] = 0
        if tr3:
            st_ops += 1
            i = cpi_j
            t = cpt_j
            if not cap_multi:
                if cap_t0[i] == t:
                    if cap_a0[i] == a49 and cap_sz0[i] == sl:
                        lvl = cap_c0[i]
                        if lvl < cap_cmax:
                            pr = cap_probs[lvl]
                            if pr >= 1.0 or cap_coin(pr):
                                cap_c0[i] = lvl + 1
                    else:
                        cap_a0[i] = a49
                        cap_sz0[i] = sl
                        cap_c0[i] = 0
                else:
                    cap_t0[i] = t
                    cap_a0[i] = a49
                    cap_sz0[i] = sl
                    cap_c0[i] = 0
            else:
                bk, hit = cap_tab.find_or_victim(i, t)
                if hit and bk[1][i] == a49 and bk[2][i] == sl:
                    cap_bump(bk[3], i)
                else:
                    bk[0][i] = t
                    bk[1][i] = a49
                    bk[2][i] = sl
                    bk[3][i] = 0
        if inv_sap:
            # Correct-but-untrained SAP: its stride is broken anyway.
            i = si_j
            t = st_j
            if not sap_multi:
                if sap_t0[i] == t:
                    sap_t0[i] = -1
                    sap_c0[i] = 0
            else:
                bk = sap_tab.find(i, t)
                if bk is not None:
                    bk[0][i] = -1
                    bk[4][i] = 0

        if track:
            iie += 1  # the load's own tick; drained at the next load
            prev_tick = p + 1

    # -- finalize -------------------------------------------------------
    iie += n_instr - prev_tick
    while iie >= epoch_len:
        iie -= epoch_len
        monitor.end_epoch()
        if fusion is not None:
            fusion.end_epoch()
    predictor._instructions_in_epoch = iie

    stats.loads += n_loads
    stats.predicted_loads += r_pred
    stats.correct_used += st_cu
    stats.incorrect_used += st_iu
    stats.train_events += st_te
    stats.train_operations += st_ops
    sh = stats.confident_histogram
    for k, v in enumerate(hist):
        if v:
            sh[k] += v
    for s in range(4):
        nm = names4[s]
        if nm not in stats.confident_by:
            continue
        stats.confident_by[nm] += cc[s]
        stats.chosen_by[nm] += ch[s]
        stats.correct_by[nm] += ck[s]
        stats.incorrect_by[nm] += cc[s] - ck[s]
        stats.sole_predictor[nm] += cs[s]

    result.loads = n_loads
    result.predicted_loads = r_pred
    result.correct_predictions = r_corr
    result.multi_confident_loads = r_multi
    result.disagreements = r_dis
    rh = result.confident_histogram
    for k, v in enumerate(hist):
        rh[k] += v
    for s in range(4):
        if cc[s]:
            result.per_component_confident[names4[s]] = cc[s]
        if ck[s]:
            result.per_component_correct[names4[s]] = ck[s]
