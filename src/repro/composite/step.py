"""The composite's per-load step over its components' table columns.

:class:`~repro.composite.composite.CompositePredictor` answers every
load with two calls, ``predict`` and ``validate_and_train``.  For the
paper's four components (any subset of LVP, SAP, CVP and CAP, of
their exact types) behind a stock accuracy monitor and fusion
controller, those calls run the two functions :func:`bind_step`
returns instead of a method call per component: the probes, the
selection and the statistics in one, the penalties, the training
policy and the FPC bumps in the other, all on the components' bank-0
columns (:class:`~repro.predictors.table.BankedTable`), with
everything they touch bound once into closure cells -- the columns,
thresholds, FPC probability tables and coin-stream blocks, the
selection and smart-training tables and the composite's pending count
tables.  The monitor and the fusion controller keep their own
methods, which the step calls on confident loads only.

The step reads a load's table indices and tags by its ordinal from the
bound trace's :func:`~repro.predictors.hash_columns.trace_hash_columns`
(the derivation the functional backend reads too); a load without an
ordinal, or with no trace bound (serve sessions, single RPCs, the test
oracles), is hashed by the components' own scalar references.

The components' ``predict``, ``train``, ``penalize`` and
``invalidate`` stay the reference: the composite's method path runs
them for every assembly :func:`step_unsupported_reason` rejects (the
footnote-1 LAP/SVP cells and subclassed components) and for every load
while fusion has tables fused, and ``tests/test_fuzz_equivalence.py``
holds the step to that path on every observable.  That method path is
the one implementation of lookup and training on fused banks: fused
loads reach it through this step in timing runs and serve sessions,
and the functional backend sends its fused loads through the
composite's ``predict`` and ``validate_and_train`` too.
"""

from __future__ import annotations

from repro.common.rng import CoinStream
from repro.composite.accuracy_monitor import (
    InfinitePcAm,
    MAm,
    NullAccuracyMonitor,
    PcAm,
)
from repro.composite.fusion import FusionController
from repro.predictors.cap import CapPredictor
from repro.predictors.cvp import CvpPredictor
from repro.predictors.hash_columns import trace_hash_columns
from repro.predictors.lvp import LvpPredictor
from repro.predictors.sap import SapPredictor
from repro.predictors.types import (
    CHOSEN,
    CONFIDENT,
    DIRECTION,
    LOAD_PATH,
    ORDINAL,
    PATH,
    PC,
    PREDICTED,
    SQUASHED,
)

#: The component types the step (and the functional backend) replays,
#: by name.
COMPONENT_TYPES = {
    "lvp": LvpPredictor,
    "sap": SapPredictor,
    "cvp": CvpPredictor,
    "cap": CapPredictor,
}
MONITOR_TYPES = (NullAccuracyMonitor, MAm, PcAm, InfinitePcAm)

_MASK49 = (1 << 49) - 1
_MASK64 = (1 << 64) - 1


def step_unsupported_reason(predictor) -> str | None:
    """Why the bound step cannot run ``predictor``'s assembly, or None.

    The step replays component, monitor and fusion semantics by exact
    type, and reads each component's FPC draws from its
    :class:`~repro.common.rng.CoinStream`'s block; a subclass or a
    third-party component could override what it has inlined, so
    anything but the known concrete types is rejected.
    The functional backend inlines the same bank-0 semantics and shares
    this predicate (:func:`repro.harness.functional_vec.vector_unsupported_reason`).
    """
    for name, component in predictor.components.items():
        expected = COMPONENT_TYPES.get(name)
        if expected is None or type(component) is not expected:
            return f"unsupported component {name!r} ({type(component).__name__})"
        if type(component._rng) is not CoinStream:
            return (
                f"unsupported FPC stream {type(component._rng).__name__} "
                f"of {name!r}"
            )
    if type(predictor.monitor) not in MONITOR_TYPES:
        return f"unsupported accuracy monitor {type(predictor.monitor).__name__}"
    fusion = predictor.fusion
    if fusion is not None and type(fusion) is not FusionController:
        return f"unsupported fusion controller {type(fusion).__name__}"
    return None


def verdict_error(correct: int, confident: int) -> ValueError:
    """The error for a verdict mask with slots outside the confident
    mask."""
    return ValueError(
        f"verdict mask {correct:#x} has slots outside the "
        f"confident mask {confident:#x}"
    )


def bind_step(predictor, trace) -> tuple:
    """``(predict, train)`` over ``predictor``'s tables, for a run of
    ``trace`` (``None``: hash every load).

    ``predict(host, pc, ordinal, direction, path, load_path,
    inflight)`` returns the load's decision record; ``train(host,
    decision, addr, size, value, correct)`` checks and counts the
    verdict mask, applies the policy and returns the number of
    component-train operations.  ``host`` is ``predictor``, passed per
    call so that the closures hold no reference back to it (a cycle
    would keep a dropped serve session's tables alive until a full
    collection).  Both work on bank 0 of every table, which stays the
    same lists for the table's lifetime; while fusion has tables fused
    (extra banks, donors out of play) they hand the load to the host's
    method path.
    """
    components = predictor.components
    names = predictor.slot_names
    width = len(names)
    slot_of = {name: slot for slot, name in enumerate(names)}
    monitor = predictor.monitor
    fusion = predictor.fusion
    smart = predictor.config.smart_training
    choice = predictor._choice
    trained_correct = predictor._trained_correct
    sap_invalidated = predictor._invalidated
    fetch = predictor._fetch_counts
    verdicts = predictor._verdict_counts
    used_counts = predictor._used_counts
    unpredicted = predictor._unpredicted
    every_slot = (1 << width) - 1
    silenced = record = None
    if type(monitor) is not NullAccuracyMonitor:
        silenced = monitor.silenced
        record = monitor.record
    note_used = fused = None
    if fusion is not None:
        note_used = fusion.note_used_prediction
        fused = fusion.state

    def columns(component):
        """The component's packed (index, tag) pairs, one per table."""
        if trace is None:
            return ((None, None),) * len(component._tables())
        return trace_hash_columns(trace, component)

    # Per component: its bit (0 when the allocation left it out), its
    # decision position, bank-0 columns, hash columns and scalar hash,
    # threshold, and FPC bump state.
    lvp = components.get("lvp")
    b_lvp = 0
    if lvp is not None:
        b_lvp = 1 << slot_of["lvp"]
        p_lvp = PREDICTED + slot_of["lvp"]
        lvp_tags, lvp_values, lvp_confs = lvp._bank0
        ((lvp_ci, lvp_ct),) = columns(lvp)
        lvp_get = lvp._pc_hashes.get
        lvp_hashes = lvp._hashes
        lvp_thr = lvp.confidence_threshold
        lvp_probs = lvp._float_probs
        lvp_cmax = lvp._conf_max
        lvp_blk = lvp._rng._block
        lvp_refill = lvp._rng._refill
    sap = components.get("sap")
    b_sap = 0
    if sap is not None:
        b_sap = 1 << slot_of["sap"]
        p_sap = PREDICTED + slot_of["sap"]
        sap_tags, sap_last, sap_strides, sap_sizes, sap_confs = sap._bank0
        ((sap_ci, sap_ct),) = columns(sap)
        sap_get = sap._pc_hashes.get
        sap_hashes = sap._hashes
        sap_thr = sap.confidence_threshold
        sap_probs = sap._float_probs
        sap_cmax = sap._conf_max
        sap_blk = sap._rng._block
        sap_refill = sap._rng._refill
    cvp = components.get("cvp")
    b_cvp = 0
    if cvp is not None:
        b_cvp = 1 << slot_of["cvp"]
        p_cvp = PREDICTED + slot_of["cvp"]
        (cv0_tags, cv0_values, cv0_confs), (cv1_tags, cv1_values, cv1_confs), (
            cv2_tags, cv2_values, cv2_confs,
        ) = cvp._bank0s
        (cv0_ci, cv0_ct), (cv1_ci, cv1_ct), (cv2_ci, cv2_ct) = columns(cvp)
        cvp_row = cvp._row
        cvp_thr = cvp.confidence_threshold
        cvp_probs = cvp._float_probs
        cvp_cmax = cvp._conf_max
        cvp_blk = cvp._rng._block
        cvp_refill = cvp._rng._refill
    cap = components.get("cap")
    b_cap = 0
    if cap is not None:
        b_cap = 1 << slot_of["cap"]
        p_cap = PREDICTED + slot_of["cap"]
        cap_tags, cap_addrs, cap_sizes, cap_confs = cap._bank0
        ((cap_ci, cap_ct),) = columns(cap)
        cap_row = cap._row
        cap_thr = cap.confidence_threshold
        cap_probs = cap._float_probs
        cap_cmax = cap._conf_max
        cap_blk = cap._rng._block
        cap_refill = cap._rng._refill
    traced = trace is not None

    def predict(host, pc, ordinal, direction, path, load_path, inflight):
        if fused is not None and fused.fused:
            return host._predict_methods(
                pc, ordinal, direction, path, load_path, inflight
            )
        decision = [pc, ordinal, direction, path, load_path, inflight,
                    0, 0, -1, *unpredicted]
        by_ordinal = traced and ordinal >= 0
        confident = 0
        if b_lvp:
            if by_ordinal:
                i = lvp_ci[ordinal]
                t = lvp_ct[ordinal]
            else:
                i, t = lvp_get(pc) or lvp_hashes(pc)
            if lvp_tags[i] == t and lvp_confs[i] >= lvp_thr:
                confident = b_lvp
                decision[p_lvp] = lvp_values[i]
        if b_sap:
            if by_ordinal:
                i = sap_ci[ordinal]
                t = sap_ct[ordinal]
            else:
                i, t = sap_get(pc) or sap_hashes(pc)
            if sap_tags[i] == t and sap_confs[i] >= sap_thr:
                confident |= b_sap
                stride = sap_strides[i]
                if stride >= 512:  # the 10-bit field is two's complement
                    stride -= 1024
                decision[p_sap] = (
                    (sap_last[i] + stride * (1 + inflight)) & _MASK49
                ) << 2 | sap_sizes[i]
        if b_cvp:
            # Longest history first; a tag match that is not confident
            # does not stop the search.
            if by_ordinal:
                i = cv2_ci[ordinal]
                t = cv2_ct[ordinal]
            else:
                hashes = cvp_row(pc, direction, path)
                i, t = hashes[2]
            if cv2_tags[i] == t and cv2_confs[i] >= cvp_thr:
                confident |= b_cvp
                decision[p_cvp] = cv2_values[i]
            else:
                if by_ordinal:
                    i = cv1_ci[ordinal]
                    t = cv1_ct[ordinal]
                else:
                    i, t = hashes[1]
                if cv1_tags[i] == t and cv1_confs[i] >= cvp_thr:
                    confident |= b_cvp
                    decision[p_cvp] = cv1_values[i]
                else:
                    if by_ordinal:
                        i = cv0_ci[ordinal]
                        t = cv0_ct[ordinal]
                    else:
                        i, t = hashes[0]
                    if cv0_tags[i] == t and cv0_confs[i] >= cvp_thr:
                        confident |= b_cvp
                        decision[p_cvp] = cv0_values[i]
        if b_cap:
            if by_ordinal:
                i = cap_ci[ordinal]
                t = cap_ct[ordinal]
            else:
                i, t = cap_row(pc, load_path)
            if cap_tags[i] == t and cap_confs[i] >= cap_thr:
                confident |= b_cap
                decision[p_cap] = cap_addrs[i] << 2 | cap_sizes[i]
        if not confident:
            fetch[0] += 1
            return decision
        if silenced is None:
            squashed = 0
            used = confident
        else:
            squashed = silenced(pc, confident)
            used = confident ^ squashed
        chosen = choice[used]
        decision[CONFIDENT] = confident
        decision[SQUASHED] = squashed
        decision[CHOSEN] = chosen
        fetch[confident << width | used] += 1
        if chosen >= 0 and note_used is not None:
            note_used(names[chosen])
        return decision

    def train(host, decision, addr, size, value, correct):
        if fused is not None and fused.fused:
            return host._train_methods(decision, addr, size, value, correct)
        confident = decision[CONFIDENT]
        if correct & ~confident:
            raise verdict_error(correct, confident)
        verdicts[confident << width | correct] += 1
        pc = decision[PC]
        ordinal = decision[ORDINAL]
        by_ordinal = traced and ordinal >= 0
        wrong = invalidated = 0
        trained = every_slot
        if confident:
            chosen = decision[CHOSEN]
            if chosen >= 0:
                used_counts[correct >> chosen & 1] += 1
            if record is not None:
                record(pc, confident, correct, chosen)
            # Misprediction feedback resets every wrong confident
            # address predictor (value predictors reset by training).
            # Smart training (Section V-D) trains every wrong component
            # and the cheapest correct one, and invalidates a correct
            # SAP it does not train; otherwise every component trains.
            wrong = confident ^ correct
            if smart:
                trained = wrong | trained_correct[correct]
                invalidated = correct & sap_invalidated & ~trained
        ops = 0
        if trained & b_lvp:
            ops += 1
            if by_ordinal:
                i = lvp_ci[ordinal]
                t = lvp_ct[ordinal]
            else:
                i, t = lvp_get(pc) or lvp_hashes(pc)
            value &= _MASK64
            if lvp_tags[i] == t and lvp_values[i] == value:
                level = lvp_confs[i]
                if level < lvp_cmax:
                    p = lvp_probs[level]
                    if p >= 1.0 or (
                        lvp_blk.pop() if lvp_blk else lvp_refill()
                    ) < p:
                        lvp_confs[i] = level + 1
            else:
                lvp_tags[i] = t
                lvp_values[i] = value
                lvp_confs[i] = 0
        if (trained | wrong | invalidated) & b_sap:
            if by_ordinal:
                i = sap_ci[ordinal]
                t = sap_ct[ordinal]
            else:
                i, t = sap_get(pc) or sap_hashes(pc)
            if wrong & b_sap and sap_tags[i] == t:
                sap_confs[i] = 0
            if trained & b_sap:
                ops += 1
                addr49 = addr & _MASK49
                if sap_tags[i] == t:
                    stride = (addr49 - sap_last[i]) & 1023
                    if stride == sap_strides[i]:
                        level = sap_confs[i]
                        if level < sap_cmax:
                            p = sap_probs[level]
                            if p >= 1.0 or (
                                sap_blk.pop() if sap_blk else sap_refill()
                            ) < p:
                                sap_confs[i] = level + 1
                    else:
                        sap_strides[i] = stride
                        sap_confs[i] = 0
                else:
                    sap_tags[i] = t
                    sap_strides[i] = 0
                    sap_confs[i] = 0
                sap_last[i] = addr49
                sap_sizes[i] = size.bit_length() - 1
            elif invalidated and sap_tags[i] == t:
                sap_tags[i] = -1
                sap_confs[i] = 0
        if trained & b_cvp:
            ops += 1
            value &= _MASK64
            # Tables 0, 1, 2 in order: they share the component's coin
            # stream, so the bump order is architectural.
            if by_ordinal:
                i = cv0_ci[ordinal]
                t = cv0_ct[ordinal]
            else:
                hashes = cvp_row(pc, decision[DIRECTION], decision[PATH])
                i, t = hashes[0]
            if cv0_tags[i] == t and cv0_values[i] == value:
                level = cv0_confs[i]
                if level < cvp_cmax:
                    p = cvp_probs[level]
                    if p >= 1.0 or (
                        cvp_blk.pop() if cvp_blk else cvp_refill()
                    ) < p:
                        cv0_confs[i] = level + 1
            else:
                cv0_tags[i] = t
                cv0_values[i] = value
                cv0_confs[i] = 0
            if by_ordinal:
                i = cv1_ci[ordinal]
                t = cv1_ct[ordinal]
            else:
                i, t = hashes[1]
            if cv1_tags[i] == t and cv1_values[i] == value:
                level = cv1_confs[i]
                if level < cvp_cmax:
                    p = cvp_probs[level]
                    if p >= 1.0 or (
                        cvp_blk.pop() if cvp_blk else cvp_refill()
                    ) < p:
                        cv1_confs[i] = level + 1
            else:
                cv1_tags[i] = t
                cv1_values[i] = value
                cv1_confs[i] = 0
            if by_ordinal:
                i = cv2_ci[ordinal]
                t = cv2_ct[ordinal]
            else:
                i, t = hashes[2]
            if cv2_tags[i] == t and cv2_values[i] == value:
                level = cv2_confs[i]
                if level < cvp_cmax:
                    p = cvp_probs[level]
                    if p >= 1.0 or (
                        cvp_blk.pop() if cvp_blk else cvp_refill()
                    ) < p:
                        cv2_confs[i] = level + 1
            else:
                cv2_tags[i] = t
                cv2_values[i] = value
                cv2_confs[i] = 0
        if (trained | wrong) & b_cap:
            if by_ordinal:
                i = cap_ci[ordinal]
                t = cap_ct[ordinal]
            else:
                i, t = cap_row(pc, decision[LOAD_PATH])
            if wrong & b_cap and cap_tags[i] == t:
                cap_confs[i] = 0
            if trained & b_cap:
                ops += 1
                addr49 = addr & _MASK49
                size_log2 = size.bit_length() - 1
                if (cap_tags[i] == t and cap_addrs[i] == addr49
                        and cap_sizes[i] == size_log2):
                    level = cap_confs[i]
                    if level < cap_cmax:
                        p = cap_probs[level]
                        if p >= 1.0 or (
                            cap_blk.pop() if cap_blk else cap_refill()
                        ) < p:
                            cap_confs[i] = level + 1
                else:
                    cap_tags[i] = t
                    cap_addrs[i] = addr49
                    cap_sizes[i] = size_log2
                    cap_confs[i] = 0
        return ops

    return predict, train
