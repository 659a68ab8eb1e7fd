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
from repro.predictors.types import (
    CHOSEN,
    CONFIDENT,
    PREDICTED,
    address_of,
    size_of,
)


def run_functional_objects(
    trace: Trace, predictor: ValuePredictorHost
) -> FunctionalResult:
    """The per-instruction interpreter: any predictor host, one
    :class:`~repro.isa.instruction.Instruction` at a time (the only
    path for EVES and for assemblies the vector backend rejects)."""
    histories = HistorySet()
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
                decision = probe_load(predictor, histories, inst.pc)
                confident = decision[CONFIDENT]
                # The speculative value of every confident slot, read
                # before training (training leaves memory alone).
                speculative_values = {}
                for slot, name in enumerate(predictor.slot_names):
                    if confident >> slot & 1:
                        prediction = decision[PREDICTED + slot]
                        if predictor.address_slots >> slot & 1:
                            prediction = mem.read(
                                address_of(prediction), size_of(prediction)
                            )
                        speculative_values[name] = prediction
                correct = judge_and_train(
                    predictor, decision, mem, inst.addr, inst.size,
                    inst.value,
                )
                if len(speculative_values) >= 2:
                    result.multi_confident_loads += 1
                    if len(set(speculative_values.values())) > 1:
                        result.disagreements += 1
                result.confident_histogram[
                    min(len(speculative_values), 4)
                ] += 1
                for name, speculative in speculative_values.items():
                    confident_counts[name] = confident_counts.get(name, 0) + 1
                    if speculative == inst.value:
                        correct_counts[name] = correct_counts.get(name, 0) + 1
                chosen = decision[CHOSEN]
                if chosen >= 0:
                    result.predicted_loads += 1
                    if correct >> chosen & 1:
                        result.correct_predictions += 1
            histories.push_memory(inst.pc)
        predictor.tick_instructions(1)
    return result
