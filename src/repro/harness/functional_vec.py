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
only its multi-bank flags when table fusion fuses or reverts.

The loop speaks the composite's mask vocabulary
(:mod:`repro.composite.composite`): each component's bit comes from
``predictor.slot_names``, probing builds the confident and verdict
masks, and selection and smart training index the composite's own
``_choice`` and ``_trained_correct`` tables.  The monitors' per-slot
counters are updated in place, and the statistics go into the
composite's pending ``(confident, used)`` and ``(confident, correct)``
count tables; :meth:`CompositePredictor.fold_pending` turns those
into the run's :class:`FunctionalResult`, the same fold that serves
``predictor.stats``.  Only the per-component probe and train code is
inlined.  A vector run therefore leaves the predictor in exactly the
state a pure object run would have, with nothing to copy back.

The history register states are the trace's shared
:class:`~repro.branch.history.LoadHistories`, the same ones the timing
model probes with.  :func:`precompute_load_batch` turns them and the
loads' outcomes into the loop's int lists, and the batch and every
table geometry's packed hash columns are memoized per trace
(:mod:`repro.common.tracememo`), so a sweep over one trace computes
them once.

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
* FPC confidence bumps draw from per-component coin streams in
  state-dependent order, so they cannot be batched; the residual loop
  flips them through the live components' own
  :class:`~repro.common.rng.CoinStream` in exactly the oracle's order
  (the stream draws its doubles in blocks, which changes no draw).
* Epoch ticks are batched between loads: boundary effects (accuracy
  monitor / fusion epochs) are only observable at the next predicted
  load, so firing them lazily is equivalent.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.branch.history import load_histories
from repro.common.bits import fold_bits_np, shr_np
from repro.common.tracememo import trace_memo
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
from repro.isa.columns import FLAG_PREDICTABLE
from repro.isa.instruction import OP_STORE
from repro.memory.image import MemoryImage
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor

_MASK49 = (1 << 49) - 1
_TAG_BITS = 14
_PC_AM_TAG_BITS = 10

#: The component types the residual interpreter replays, by name.
_COMPONENT_TYPES = {
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


# ----------------------------------------------------------------------
# Whole-trace precompute
# ----------------------------------------------------------------------


class _LoadBatch:
    """Everything the residual loop needs, precomputed per load."""

    __slots__ = (
        "n_instructions", "histories", "pos", "pc", "value", "addr49",
        "size_log2", "store_pos", "store_addr", "store_size", "store_value",
    )


def precompute_load_batch(trace) -> _LoadBatch:
    """Vectorized pass over ``trace``'s packed columns: the predictable
    loads' fetch-time histories (the trace's shared
    :func:`~repro.branch.history.load_histories`), their PCs and
    architectural outcomes as ints, and the store schedule."""
    histories = load_histories(trace)
    columns = trace.columns
    addr = np.frombuffer(columns.addr, dtype=np.uint64)
    size = np.frombuffer(columns.size, dtype=np.uint8)
    value = np.frombuffer(columns.value, dtype=np.uint64)
    op = np.frombuffer(columns.op, dtype=np.uint8)
    flags = np.frombuffer(columns.flags, dtype=np.uint8)
    load_pos = np.flatnonzero((flags & FLAG_PREDICTABLE) != 0)

    batch = _LoadBatch()
    batch.n_instructions = len(columns)
    batch.histories = histories
    batch.pos = load_pos.tolist()
    batch.pc = histories.pc.tolist()
    batch.value = value[load_pos].tolist()
    batch.addr49 = (addr[load_pos] & np.uint64(_MASK49)).tolist()
    # size.bit_length() - 1, via a lookup over the uint8 size domain.
    batch.size_log2 = _SIZE_LOG2[size[load_pos]].tolist()

    store_pos = np.nonzero(op == OP_STORE)[0]
    batch.store_pos = store_pos.tolist()
    batch.store_addr = addr[store_pos].tolist()
    batch.store_size = size[store_pos].tolist()
    batch.store_value = value[store_pos].tolist()
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
# Per-trace precompute memo
# ----------------------------------------------------------------------
#
# The load batch and hash columns are pure functions of the trace and
# the table geometry -- never of predictor state -- so sweeps that
# evaluate many configs / seeds / repeats over the same trace share
# them through the per-trace memo (repro.common.tracememo).  A search
# holds every trace it touches, each with a dozen table geometries, so
# hash columns are kept as packed arrays rather than lists of ints (one
# or two bytes per load, not ~36).


def _packed(*columns: np.ndarray) -> tuple[array, ...]:
    """Hash columns as packed arrays of the narrowest unsigned type that
    holds their values."""
    out = []
    for column in columns:
        dtype = np.min_scalar_type(int(column.max()) if column.size else 0)
        out.append(array(dtype.char, column.astype(dtype).tobytes()))
    return tuple(out)


def _cached_hashes(trace, key, compute):
    return trace_memo(trace, ("functional",) + key, compute)


def _cached_pc_hashes(trace, pc_np, index_bits):
    return _cached_hashes(trace, ("pc", index_bits), lambda: _packed(
        _pc_index_np(pc_np, index_bits), _pc_tag_np(pc_np, _TAG_BITS)
    ))


def _cached_cvp_hashes(trace, component, histories):
    return _cached_hashes(trace, component.geometry_key, lambda: [
        _packed(index, tag) for index, tag in component.hash_columns(
            histories.pc, histories.direction, histories.path
        )
    ])


def _cached_cap_hashes(trace, component, histories):
    return _cached_hashes(trace, component.geometry_key, lambda: _packed(
        *component.hash_columns(histories.pc, histories.load_path)
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
            expected = _COMPONENT_TYPES.get(name)
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
    smart = predictor.config.smart_training
    epoch_len = predictor.config.epoch_instructions
    names = predictor.slot_names
    width = len(names)
    # Each component's slot bit; 0 for one the allocation left out.
    bit_of = {name: 1 << slot for slot, name in enumerate(names)}
    b_lvp = bit_of.get("lvp", 0)
    b_sap = bit_of.get("sap", 0)
    b_cvp = bit_of.get("cvp", 0)
    b_cap = bit_of.get("cap", 0)
    choice = predictor._choice
    trained_correct = predictor._trained_correct
    invalidated = predictor._invalidated

    # -- whole-trace precompute (shared across runs on this trace) -----
    batch = _cached_hashes(
        trace, ("batch",), lambda: precompute_load_batch(trace)
    )
    pos = batch.pos
    n_loads = len(pos)
    spos = batch.store_pos
    s_addr = batch.store_addr
    s_size = batch.store_size
    s_val = batch.store_value
    n_stores = len(spos)
    n_instr = batch.n_instructions

    # The live tables: bank-0 columns stay valid for a table's lifetime
    # (fusion flushes and re-banks in place), so only the multi-bank
    # flags below follow fusion.  Every FPC draw goes through the
    # component's own coin stream, one-bank or multi-bank.
    histories = batch.histories
    pc_np = histories.pc
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
        cvp_h = _cached_cvp_hashes(trace, cvp, histories)
        (cv0i, cv0t), (cv1i, cv1t), (cv2i, cv2t) = cvp_h
        cvp_thr = cvp.confidence_threshold
        cvp_probs = cvp._float_probs
        cvp_cmax = cvp._conf_max
        cvp_coin = cvp._rng.coin
        cvp_bump = cvp._bump_confidence
    if cap is not None:
        cap_tab = cap._table
        cap_t0, cap_a0, cap_sz0, cap_c0 = cap_tab.banks[0]
        cpi, cpt = _cached_cap_hashes(trace, cap, histories)
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
        ami, amt = _cached_pc_am_hashes(trace, pc_np, monitor.entries)
    if m_inf:
        am_map = monitor._map
    if m_pc or m_inf:
        am_thr = monitor.accuracy_threshold

    # -- fusion bindings -----------------------------------------------
    def live_mask():
        """The non-donor slots."""
        donors = fusion.state.donors if fusion.state.fused else ()
        return sum(bit for name, bit in bit_of.items() if name not in donors)

    if fusion is not None:
        f_used = fusion._epoch_used
        live = live_mask()
    else:
        live = (1 << width) - 1
    lvp_multi = lvp is not None and lvp_tab.num_banks > 1
    sap_multi = sap is not None and sap_tab.num_banks > 1
    cvp_multi = cvp is not None and cv0_tab.num_banks > 1
    cap_multi = cap is not None and cap_tab.num_banks > 1

    # -- memory fast paths ---------------------------------------------
    mem_words = mem._words
    mw_get = mem_words.get
    mem_read = mem.read
    mem_write = mem.write

    # -- accumulators: the composite's own pending counts, emptied
    # first so that they hold this run alone ---------------------------
    predictor._fold_stats()
    fetch = predictor._fetch_counts
    verdicts = predictor._verdict_counts
    used_counts = predictor._used_counts
    ops = dis = 0
    v_lvp = v_sap = v_cvp = v_cap = 0

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
        batch.pc,
        batch.value,
        batch.addr49,
        batch.size_log2,
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
                if m_mam:
                    mam_sil = monitor._silenced
                if fusion is not None:
                    f_used = fusion._epoch_used
                    if mark != (
                        fusion.state.fusions_performed,
                        fusion.state.reversions_performed,
                    ):
                        # Banks were flushed, granted or revoked in
                        # place: refresh the live mask and multi-bank
                        # flags.
                        live = live_mask()
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

        # -- probe every live component: confident and verdict masks ---
        conf = ok = 0
        if live & b_lvp:
            i = li_j
            t = lt_j
            if not lvp_multi:
                if lvp_t0[i] == t and lvp_c0[i] >= lvp_thr:
                    conf = b_lvp
                    v_lvp = lvp_v0[i]
            else:
                bk = lvp_tab.find(i, t)
                if bk is not None and bk[2][i] >= lvp_thr:
                    conf = b_lvp
                    v_lvp = bk[1][i]
            if conf and v_lvp == lval:
                ok = b_lvp
        if live & b_sap:
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
                conf |= b_sap
                v_sap = (
                    mw_get(a >> 3, 0)
                    if sz == 8 and not a & 7
                    else mem_read(a, sz)
                )
                if v_sap == lval:
                    ok |= b_sap
        if live & b_cvp:
            # Longest-history table first; a tag match that is not
            # confident does NOT stop the search (oracle semantics).
            found = False
            i = c2i_j
            t = c2t_j
            if cvp_multi:
                bk = cv2_tab.find(i, t)
                if bk is not None and bk[2][i] >= cvp_thr:
                    v_cvp = bk[1][i]
                    found = True
            elif cv2_t0[i] == t and cv2_c0[i] >= cvp_thr:
                v_cvp = cv2_v0[i]
                found = True
            if not found:
                i = c1i_j
                t = c1t_j
                if cvp_multi:
                    bk = cv1_tab.find(i, t)
                    if bk is not None and bk[2][i] >= cvp_thr:
                        v_cvp = bk[1][i]
                        found = True
                elif cv1_t0[i] == t and cv1_c0[i] >= cvp_thr:
                    v_cvp = cv1_v0[i]
                    found = True
            if not found:
                i = c0i_j
                t = c0t_j
                if cvp_multi:
                    bk = cv0_tab.find(i, t)
                    if bk is not None and bk[2][i] >= cvp_thr:
                        v_cvp = bk[1][i]
                        found = True
                elif cv0_t0[i] == t and cv0_c0[i] >= cvp_thr:
                    v_cvp = cv0_v0[i]
                    found = True
            if found:
                conf |= b_cvp
                if v_cvp == lval:
                    ok |= b_cvp
        if live & b_cap:
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
                conf |= b_cap
                v_cap = (
                    mw_get(a >> 3, 0)
                    if sz == 8 and not a & 7
                    else mem_read(a, sz)
                )
                if v_cap == lval:
                    ok |= b_cap

        if conf:
            # -- AM squash, selection, statistics ----------------------
            am_entry = None
            if m_mam:
                used = conf & ~mam_sil
            elif m_pc:
                e = am_table[ami_j]
                if e is not None and e.tag == amt_j:
                    am_entry = e
                    used = conf ^ e.squashed(conf, am_thr)
                else:
                    used = conf
            elif m_inf:
                am_entry = am_map.get(pc_j)
                used = (
                    conf if am_entry is None
                    else conf ^ am_entry.squashed(conf, am_thr)
                )
            else:
                used = conf
            fetch[conf << width | used] += 1
            verdicts[conf << width | ok] += 1
            if conf & (conf - 1):
                # Two or more confident: the speculative values differ
                # if some are right and some wrong, or, all wrong, if
                # they are not all one value.
                if ok:
                    dis += ok != conf
                else:
                    spec = set()
                    if conf & b_lvp:
                        spec.add(v_lvp)
                    if conf & b_sap:
                        spec.add(v_sap)
                    if conf & b_cvp:
                        spec.add(v_cvp)
                    if conf & b_cap:
                        spec.add(v_cap)
                    dis += len(spec) > 1
            chosen = choice[used]
            good = chosen >= 0 and ok >> chosen & 1
            if chosen >= 0:
                used_counts[good] += 1
                if fusion is not None:
                    f_used[names[chosen]] += 1

            # -- accuracy monitor record -------------------------------
            if m_mam:
                if chosen >= 0:
                    mam_pred[chosen] += 1
                    if not good:
                        mam_mis[chosen] += 1
            elif am_entry is not None:
                am_entry.update(conf, ok)
            elif chosen >= 0 and not good:
                if m_pc:
                    am_table[ami_j] = _PcAmEntry(amt_j, width)
                elif m_inf:
                    am_map[pc_j] = _PcAmEntry(0, width)

            # -- penalize wrong confident address predictors -----------
            wrong = conf ^ ok
            if wrong & b_sap:
                i = si_j
                t = st_j
                if not sap_multi:
                    if sap_t0[i] == t:
                        sap_c0[i] = 0
                else:
                    bk = sap_tab.find(i, t)
                    if bk is not None:
                        bk[4][i] = 0
            if wrong & b_cap:
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
        if conf and smart:
            trained = wrong | trained_correct[ok]
            inv = ok & invalidated & ~trained
        else:
            # train-all (also smart training's no-confident rule)
            trained = live
            inv = 0

        if trained & b_lvp:
            ops += 1
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
        if trained & b_sap:
            ops += 1
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
        if trained & b_cvp:
            ops += 1
            # Tables 0, 1, 2 in order: they share the component's coin
            # stream, so the bump order is architectural.
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
        if trained & b_cap:
            ops += 1
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
        if inv:
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

    # Loads with no confident component were not counted in the loop.
    unconfident = n_loads - sum(fetch)
    fetch[0] += unconfident
    verdicts[0] += unconfident
    predictor._train_operations += ops
    run = predictor.fold_pending(predictor.new_stats())
    result.loads = run.loads
    result.predicted_loads = run.predicted_loads
    result.correct_predictions = run.correct_used
    result.multi_confident_loads = sum(run.confident_histogram[2:])
    result.disagreements = dis
    for k, count in enumerate(run.confident_histogram):
        result.confident_histogram[k] += count
    for name in names:
        if run.confident_by[name]:
            result.per_component_confident[name] = run.confident_by[name]
        if run.correct_by[name]:
            result.per_component_correct[name] = run.correct_by[name]
