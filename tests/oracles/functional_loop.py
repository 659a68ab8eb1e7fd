"""The per-instruction functional interpreter: the oracle for
``run_functional``.

:func:`run_functional_objects` evaluates any predictor host over
``trace.instructions`` one :class:`~repro.isa.instruction.Instruction`
at a time, with a live :class:`HistorySet` and memory image.  It shares
``probe_load`` and ``judge_and_train`` with the serve tier's
:class:`~repro.serve.session.PredictorSession`, so what it checks is the
vector backend (:mod:`repro.harness.functional_vec`): precomputed
histories, hash columns, store schedules and the inlined residual loop.
The equivalence tests require its :class:`FunctionalResult` and final
table state to equal ``run_functional``'s bit for bit.  It is also the
only functional evaluator for hosts ``run_functional`` rejects (EVES,
lone-component adapters, LAP/SVP extras).
"""

from __future__ import annotations

from repro.branch.history import HistorySet
from repro.harness.functional import (
    FunctionalResult,
    judge_and_train,
    probe_load,
)
from repro.isa.instruction import OpClass
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline.vp import ValuePredictorHost


def run_functional_objects(
    trace: Trace, predictor: ValuePredictorHost
) -> FunctionalResult:
    """The per-instruction interpreter: any predictor host, one
    :class:`~repro.isa.instruction.Instruction` at a time (the only
    path for EVES and for assemblies the vector backend rejects)."""
    histories = HistorySet()
    bind = getattr(predictor, "bind_history", None)
    if bind is not None:
        bind(histories)
    mem = (
        trace.initial_memory.copy()
        if isinstance(trace.initial_memory, MemoryImage)
        else MemoryImage()
    )
    result = FunctionalResult(workload=trace.name, instructions=len(trace))
    confident_counts = result.per_component_confident
    correct_counts = result.per_component_correct

    for inst in trace.instructions:
        op = inst.op
        if op.is_branch:
            if op is OpClass.BRANCH_COND:
                histories.push_branch(inst.pc, inst.taken)
            else:
                histories.push_unconditional(inst.pc)
        elif op is OpClass.STORE:
            mem.write(inst.addr, inst.size, inst.value)
            histories.push_memory(inst.pc)
        elif op is OpClass.LOAD:
            if inst.predictable:
                result.loads += 1
                decision = predictor.predict(probe_load(histories, inst.pc))
                correctness, speculative_values = judge_and_train(
                    predictor, decision, mem, inst.addr, inst.size,
                    inst.value,
                )
                if len(speculative_values) >= 2:
                    result.multi_confident_loads += 1
                    if len(set(speculative_values)) > 1:
                        result.disagreements += 1
                result.confident_histogram[min(len(correctness), 4)] += 1
                for name, correct in correctness.items():
                    confident_counts[name] = confident_counts.get(name, 0) + 1
                    if correct:
                        correct_counts[name] = correct_counts.get(name, 0) + 1
                if decision.chosen is not None:
                    result.predicted_loads += 1
                    if correctness[decision.chosen.component]:
                        result.correct_predictions += 1
            histories.push_memory(inst.pc)
        predictor.tick_instructions(1)
    return result
