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
entry field per bank, so the loop binds bank 0's columns once, the
``_bank0``/``_bank0s`` lists the composite's bound step
(:mod:`repro.composite.step`) binds too.  Bank 0 is every table's one
bank while nothing is fused.  While fusion has tables fused, a load
goes through the composite's own ``predict`` and
``validate_and_train`` instead, as in a timing run, so fused banks
have one implementation everywhere: the components' methods, which the
step hands fused loads to.

The loop speaks the composite's mask vocabulary
(:mod:`repro.composite.composite`): each component's bit comes from
``predictor.slot_names``, probing builds the confident and verdict
masks, and selection and smart training index the composite's own
``_choice`` and ``_trained_correct`` tables.  The monitors' per-slot
counters are updated in place, and the statistics go into the
composite's pending ``(confident, used)`` and ``(confident, correct)``
count tables; :meth:`CompositePredictor.fold_pending` turns those
into the run's :class:`FunctionalResult`, the same fold that serves
``predictor.stats``.  Only the per-component bank-0 probe and train
code is inlined.  A vector run therefore leaves the predictor in
exactly the state a pure object run would have, with nothing to copy
back.

The history register states are the trace's shared
:class:`~repro.branch.history.LoadHistories`, the same ones the timing
model probes with.  :func:`precompute_load_batch` turns them and the
loads' outcomes into the loop's int lists.  The batch is memoized per
trace (:mod:`repro.common.tracememo`), and so are every table
geometry's and the finite PC-AM's packed hash columns
(:func:`repro.predictors.hash_columns.trace_hash_columns`, which the
composite's timing step reads too), so a sweep over one trace computes
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

from itertools import repeat

import numpy as np

from repro.branch.history import load_histories
from repro.common.tracememo import trace_memo
from repro.composite.accuracy_monitor import InfinitePcAm, MAm, PcAm, _PcAmEntry
from repro.composite.composite import CompositePredictor
from repro.composite.step import step_unsupported_reason
from repro.harness.functional import FunctionalResult
from repro.isa.columns import FLAG_PREDICTABLE
from repro.isa.instruction import OP_STORE
from repro.memory.image import MemoryImage
from repro.pipeline.vp import judge
from repro.predictors.hash_columns import trace_hash_columns
from repro.predictors.types import CONFIDENT, PREDICTED, address_of, size_of

_MASK49 = (1 << 49) - 1

#: ``i.bit_length() - 1`` over the uint8 domain of the size column.
_SIZE_LOG2 = np.array([i.bit_length() - 1 for i in range(256)], dtype=np.int64)


# ----------------------------------------------------------------------
# Whole-trace precompute
# ----------------------------------------------------------------------


class _LoadBatch:
    """Everything the residual loop needs, precomputed per load."""

    __slots__ = (
        "n_instructions", "histories", "pos", "value", "addr49",
        "size_log2", "store_pos", "store_addr", "store_size", "store_value",
    )


def precompute_load_batch(trace) -> _LoadBatch:
    """Vectorized pass over ``trace``'s packed columns: the predictable
    loads' fetch-time histories (the trace's shared
    :func:`~repro.branch.history.load_histories`), their positions and
    architectural outcomes as ints, and the store schedule.  Their PCs
    stay a numpy column of the histories: only PC-AM-infinite reads
    them as ints, per run."""
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


# ----------------------------------------------------------------------
# Support predicate
# ----------------------------------------------------------------------


def vector_unsupported_reason(trace, predictor) -> str | None:
    """Why ``run_functional_vec`` cannot evaluate this pair, or None.

    The vector backend replays component/monitor/fusion semantics by
    exact type, as the composite's bound step does, and shares its
    predicate (:func:`repro.composite.step.step_unsupported_reason`).
    """
    if getattr(trace, "columns", None) is None:
        return "trace has no packed columns"
    if type(predictor) is not CompositePredictor:
        return f"unsupported predictor type {type(predictor).__name__}"
    return step_unsupported_reason(predictor)


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
    every_slot = (1 << width) - 1
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
    batch = trace_memo(
        trace, ("functional", "batch"), lambda: precompute_load_batch(trace)
    )
    pos = batch.pos
    n_loads = len(pos)
    spos = batch.store_pos
    s_addr = batch.store_addr
    s_size = batch.store_size
    s_val = batch.store_value
    n_stores = len(spos)
    n_instr = batch.n_instructions

    # The live tables' bank-0 columns, the step's own bindings: every
    # table's one bank while nothing is fused, and the same lists for
    # the table's lifetime.  Every FPC draw goes through the
    # component's own coin stream.
    histories = batch.histories
    if lvp is not None:
        lvp_t0, lvp_v0, lvp_c0 = lvp._bank0
        ((li, lt),) = trace_hash_columns(trace, lvp)
        lvp_thr = lvp.confidence_threshold
        lvp_probs = lvp._float_probs
        lvp_cmax = lvp._conf_max
        lvp_coin = lvp._rng.coin
    if sap is not None:
        sap_t0, sap_la0, sap_st0, sap_sz0, sap_c0 = sap._bank0
        ((si, st_),) = trace_hash_columns(trace, sap)
        sap_thr = sap.confidence_threshold
        sap_probs = sap._float_probs
        sap_cmax = sap._conf_max
        sap_coin = sap._rng.coin
    if cvp is not None:
        (cv0_t0, cv0_v0, cv0_c0), (cv1_t0, cv1_v0, cv1_c0), (
            cv2_t0, cv2_v0, cv2_c0,
        ) = cvp._bank0s
        (cv0i, cv0t), (cv1i, cv1t), (cv2i, cv2t) = trace_hash_columns(
            trace, cvp
        )
        cvp_thr = cvp.confidence_threshold
        cvp_probs = cvp._float_probs
        cvp_cmax = cvp._conf_max
        cvp_coin = cvp._rng.coin
    if cap is not None:
        cap_t0, cap_a0, cap_sz0, cap_c0 = cap._bank0
        ((cpi, cpt),) = trace_hash_columns(trace, cap)
        cap_thr = cap.confidence_threshold
        cap_probs = cap._float_probs
        cap_cmax = cap._conf_max
        cap_coin = cap._rng.coin

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
        ((ami, amt),) = trace_hash_columns(trace, monitor)
    if m_inf:
        am_map = monitor._map
        am_pcs = histories.pc.tolist()
    if m_pc or m_inf:
        am_thr = monitor.accuracy_threshold

    # -- fused loads: while fusion has tables fused (extra banks, donors
    # out of play), a load goes through the composite's own predict and
    # validate_and_train, whose step hands it to the method path.
    # Fusion fuses and reverts only at an epoch end. -----------------
    fused = False
    if fusion is not None:
        f_used = fusion._epoch_used
        f_state = fusion.state
        fused = f_state.fused
        predict = predictor.predict
        validate = predictor.validate_and_train
        address_slots = predictor.address_slots

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
        # The load's ordinal, for a fused load's histories and
        # PC-AM-infinite's PC.
        range(n_loads) if fusion is not None or m_inf else rep0,
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
    for (p, k, lval, a49, sl, li_j, lt_j, si_j, st_j, c0i_j, c0t_j,
         c1i_j, c1t_j, c2i_j, c2t_j, cpi_j, cpt_j, ami_j, amt_j) in rows:
        # -- epoch clock: the instructions since the previous load, its
        # own included (ticks batched between loads) -------------------
        if track:
            iie += p - prev_tick
            prev_tick = p
            if iie >= epoch_len:
                while iie >= epoch_len:
                    iie -= epoch_len
                    monitor.end_epoch()
                    if fusion is not None:
                        fusion.end_epoch()
                if m_mam:
                    mam_sil = monitor._silenced
                if fusion is not None:
                    f_used = fusion._epoch_used
                    fused = f_state.fused

        # -- apply older stores ----------------------------------------
        while sptr < n_stores and spos[sptr] < p:
            a = s_addr[sptr]
            sz = s_size[sptr]
            if sz == 8 and not a & 7:
                mem_words[a >> 3] = s_val[sptr]
            else:
                mem_write(a, sz, s_val[sptr])
            sptr += 1

        # -- a fused load: the composite's own two calls ---------------
        if fused:
            decision = predict(
                int(histories.pc[k]), -1, int(histories.direction[k]),
                int(histories.path[k]), int(histories.load_path[k]), 0,
            )
            conf = decision[CONFIDENT]
            ok = judge(decision, lval, mem, address_slots)
            validate(decision, a49, 1 << sl, lval, ok)
            if conf & (conf - 1):
                if ok:
                    dis += ok != conf
                else:
                    # Every confident prediction wrong: they disagree
                    # if they are not all one value.
                    dis += len({
                        mem_read(address_of(v), size_of(v))
                        if address_slots >> slot & 1 else v
                        for slot, v in enumerate(decision[PREDICTED:])
                        if conf >> slot & 1
                    }) > 1
            continue

        # -- probe every component: confident and verdict masks --------
        conf = ok = 0
        if b_lvp and lvp_t0[li_j] == lt_j and lvp_c0[li_j] >= lvp_thr:
            conf = b_lvp
            v_lvp = lvp_v0[li_j]
            if v_lvp == lval:
                ok = b_lvp
        if b_sap and sap_t0[si_j] == st_j and sap_c0[si_j] >= sap_thr:
            conf |= b_sap
            stv = sap_st0[si_j]
            a = (
                sap_la0[si_j] + (stv if stv < 512 else stv - 1024)
            ) & _MASK49
            sz = 1 << sap_sz0[si_j]
            v_sap = (
                mw_get(a >> 3, 0) if sz == 8 and not a & 7
                else mem_read(a, sz)
            )
            if v_sap == lval:
                ok |= b_sap
        if b_cvp:
            # Longest-history table first; a tag match that is not
            # confident does NOT stop the search (oracle semantics).
            if cv2_t0[c2i_j] == c2t_j and cv2_c0[c2i_j] >= cvp_thr:
                conf |= b_cvp
                v_cvp = cv2_v0[c2i_j]
            elif cv1_t0[c1i_j] == c1t_j and cv1_c0[c1i_j] >= cvp_thr:
                conf |= b_cvp
                v_cvp = cv1_v0[c1i_j]
            elif cv0_t0[c0i_j] == c0t_j and cv0_c0[c0i_j] >= cvp_thr:
                conf |= b_cvp
                v_cvp = cv0_v0[c0i_j]
            if conf & b_cvp and v_cvp == lval:
                ok |= b_cvp
        if b_cap and cap_t0[cpi_j] == cpt_j and cap_c0[cpi_j] >= cap_thr:
            conf |= b_cap
            a = cap_a0[cpi_j]
            sz = 1 << cap_sz0[cpi_j]
            v_cap = (
                mw_get(a >> 3, 0) if sz == 8 and not a & 7
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
                am_entry = am_map.get(am_pcs[k])
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
                    am_map[am_pcs[k]] = _PcAmEntry(0, width)

            # -- penalize wrong confident address predictors (their
            # entries matched at the probe) ----------------------------
            wrong = conf ^ ok
            if wrong & b_sap:
                sap_c0[si_j] = 0
            if wrong & b_cap:
                cap_c0[cpi_j] = 0

        # -- training policy (Section V-D) -----------------------------
        if conf and smart:
            trained = wrong | trained_correct[ok]
            inv = ok & invalidated & ~trained
        else:
            # train-all (also smart training's no-confident rule)
            trained = every_slot
            inv = 0

        if trained & b_lvp:
            ops += 1
            i = li_j
            if lvp_t0[i] == lt_j:
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
                lvp_t0[i] = lt_j
                lvp_v0[i] = lval
                lvp_c0[i] = 0
        if trained & b_sap:
            ops += 1
            i = si_j
            if sap_t0[i] == st_j:
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
                sap_t0[i] = st_j
                sap_la0[i] = a49
                sap_st0[i] = 0
                sap_sz0[i] = sl
                sap_c0[i] = 0
        if trained & b_cvp:
            ops += 1
            # Tables 0, 1, 2 in order: they share the component's coin
            # stream, so the bump order is architectural.
            i = c0i_j
            if cv0_t0[i] == c0t_j and cv0_v0[i] == lval:
                lvl = cv0_c0[i]
                if lvl < cvp_cmax:
                    pr = cvp_probs[lvl]
                    if pr >= 1.0 or cvp_coin(pr):
                        cv0_c0[i] = lvl + 1
            else:
                cv0_t0[i] = c0t_j
                cv0_v0[i] = lval
                cv0_c0[i] = 0
            i = c1i_j
            if cv1_t0[i] == c1t_j and cv1_v0[i] == lval:
                lvl = cv1_c0[i]
                if lvl < cvp_cmax:
                    pr = cvp_probs[lvl]
                    if pr >= 1.0 or cvp_coin(pr):
                        cv1_c0[i] = lvl + 1
            else:
                cv1_t0[i] = c1t_j
                cv1_v0[i] = lval
                cv1_c0[i] = 0
            i = c2i_j
            if cv2_t0[i] == c2t_j and cv2_v0[i] == lval:
                lvl = cv2_c0[i]
                if lvl < cvp_cmax:
                    pr = cvp_probs[lvl]
                    if pr >= 1.0 or cvp_coin(pr):
                        cv2_c0[i] = lvl + 1
            else:
                cv2_t0[i] = c2t_j
                cv2_v0[i] = lval
                cv2_c0[i] = 0
        if trained & b_cap:
            ops += 1
            i = cpi_j
            if cap_t0[i] == cpt_j:
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
                cap_t0[i] = cpt_j
                cap_a0[i] = a49
                cap_sz0[i] = sl
                cap_c0[i] = 0
        if inv and sap_t0[si_j] == st_j:
            # Correct-but-untrained SAP: its stride is broken anyway.
            sap_t0[si_j] = -1
            sap_c0[si_j] = 0

    # -- finalize -------------------------------------------------------
    iie += n_instr - prev_tick
    while iie >= epoch_len:
        iie -= epoch_len
        monitor.end_epoch()
        if fusion is not None:
            fusion.end_epoch()
    predictor._instructions_in_epoch = iie

    # Loads with no confident component were not counted in the loop,
    # except those that took the fused path.
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
