"""Fuzzed equivalence of the three evaluators over generated traces.

Hypothesis builds small memory-consistent programs that aim at the
places where a fast path could drift from its reference:

* a loop body repeated many times, so components grow confident and
  predict well inside the program, and stores that change what later
  iterations load, so some of those predictions are wrong;
* a handful of PCs, some of them aliasing in the predictor tables;
* ALU instructions (single-cycle or divides) with zero to three
  source registers, some of them their own destination or never
  written;
* stores of every size to a few addresses that later loads read,
  at any byte offset, and strided loads;
* runs of branches longer than the history lengths the tables read;
* lengths that end mid-epoch (the assemblies run 97-instruction epochs);
* every component alone (as a ``component`` spec and as the same
  one-component plain composite spelled out with 97-instruction
  epochs) or in a composite, including one whose confidence thresholds
  are all clamped to 1, so context-aware components reach confident
  and wrong predictions in short programs.

Each program must give the same answer three ways: the columnar core
loop against the object-path oracle, ``run_functional`` against the
object interpreter, and a serve session fed the program's events
against ``run_functional``.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.functional import run_functional
from repro.harness.runner import build_predictor
from repro.isa.instruction import Instruction, OpClass
from repro.isa.trace import Trace
from repro.memory.image import MemoryImage
from repro.pipeline.core import simulate
from repro.serve.loadgen import trace_to_events
from repro.serve.session import PredictorSession, resolve_spec

from oracles.core_loop import simulate_objects
from oracles.functional_loop import run_functional_objects

MAX_LENGTH = 300

#: Eight PCs; the second four alias the first four in any table of up
#: to 2**14 entries indexed by PC bits.
PCS = tuple(0x1000 + 4 * i for i in range(4)) + tuple(
    0x1000 + 4 * i + (1 << 16) for i in range(4)
)
#: Three 8-byte words loads and stores share (plus one never stored).
WORDS = (0x8000, 0x8008, 0x8040, 0x9000)

def _alone(name):
    """``name`` as a one-component plain composite of 64 entries."""
    return {"kind": "composite", "config": {
        "epoch_instructions": 97, "accuracy_monitor": "none",
        "smart_training": False, "table_fusion": False,
        **{f"{slot}_entries": 64 if slot == name else 0
           for slot in ("lvp", "sap", "cvp", "cap")},
    }}


#: Assemblies with short epochs, so most traces end mid-epoch.
SPECS = (
    {"kind": "composite", "entries": 64,
     "config": {"epoch_instructions": 97}},
    {"kind": "composite", "entries": 64,
     "config": {"epoch_instructions": 97, "accuracy_monitor": "m-am",
                "confidence_delta": -2}},
    # A delta of -6 takes every Table IV threshold (at most 7) to 1.
    {"kind": "composite", "entries": 64,
     "config": {"epoch_instructions": 97, "confidence_delta": -6}},
    {"kind": "component", "name": "cvp", "entries": 64},
    {"kind": "component", "name": "cap", "entries": 64},
    {"kind": "component", "name": "sap", "entries": 64},
    _alone("cvp"),
    _alone("cap"),
    _alone("sap"),
)

_pc = st.sampled_from(PCS)
_size = st.sampled_from((1, 2, 4, 8))
_addr = st.tuples(st.sampled_from(WORDS), st.integers(0, 7))

#: ALU destinations and sources: four registers, so consumers often
#: read a recent producer (loads write r0 or r4).
_reg = st.integers(0, 3)

_step = st.one_of(
    # Zero to three sources, so the core loop's producer columns see
    # every operand count up to one beyond its two fixed columns; a
    # 12-cycle divide makes a late producer bind its consumers.
    st.tuples(st.just("alu"), _pc, _reg, st.lists(_reg, max_size=3),
              st.sampled_from((OpClass.INT_ALU, OpClass.INT_DIV))),
    st.tuples(st.just("store"), _pc, _addr, _size, st.integers(0, 2**64 - 1),
              st.integers(0, 2)),
    st.tuples(st.just("load"), _pc, _addr, _size, st.booleans()),
    st.tuples(st.just("strided"), _pc, st.sampled_from((8, 24, 64))),
    st.tuples(st.just("branches"), _pc, st.lists(st.booleans(), min_size=1,
                                                 max_size=80)),
    st.tuples(st.just("jump"), _pc, st.sampled_from((
        OpClass.BRANCH_DIRECT, OpClass.BRANCH_INDIRECT,
        OpClass.BRANCH_RETURN,
    )), st.sampled_from(PCS)),
)


def _build(body, repeats, tail) -> Trace:
    """``body`` ``repeats`` times, then ``tail``: a memory-consistent
    trace of at most ``MAX_LENGTH`` instructions."""
    initial = MemoryImage()
    for i, word in enumerate(WORDS):
        initial.write(word, 8, 0x0101010101010101 * (i + 1))
    initial.write_words(0xA000, range(1, 1 + 64 * 40))
    memory = initial.copy()
    out = []
    steps = [(i, step) for i in range(repeats) for step in body]
    steps += [(repeats, step) for step in tail]
    for iteration, step in steps:
        kind, pc = step[0], step[1]
        if kind == "alu":
            out.append(Instruction(pc=pc, op=step[4], dest=step[2],
                                   srcs=tuple(step[3])))
        elif kind == "store":
            (word, offset), size = step[2], step[3]
            # A nonzero step makes the stored value change per iteration.
            value = (step[4] + step[5] * iteration) & ((1 << (8 * size)) - 1)
            memory.write(word + offset, size, value)
            out.append(Instruction(pc=pc, op=OpClass.STORE, srcs=(1,),
                                   addr=word + offset, size=size,
                                   value=value))
        elif kind == "load":
            (word, offset), size, no_predict = step[2], step[3], step[4]
            addr = word + offset
            out.append(Instruction(pc=pc, op=OpClass.LOAD, dest=pc % 8,
                                   srcs=(2,), addr=addr, size=size,
                                   value=memory.read(addr, size),
                                   no_predict=no_predict))
        elif kind == "strided":
            addr = 0xA000 + step[2] * iteration
            out.append(Instruction(pc=pc, op=OpClass.LOAD, dest=pc % 8,
                                   addr=addr, size=8,
                                   value=memory.read(addr, 8)))
        elif kind == "branches":
            for i, taken in enumerate(step[2]):
                out.append(Instruction(pc=PCS[(PCS.index(pc) + i) % 8],
                                       op=OpClass.BRANCH_COND, srcs=(3,),
                                       taken=taken, target=0x1000))
        else:
            op, target = step[2], step[3]
            out.append(Instruction(pc=pc, op=op, taken=True, target=target,
                                   is_call=op is not OpClass.BRANCH_RETURN))
    trace = Trace("fuzz", out[:MAX_LENGTH])
    trace.initial_memory = initial
    return trace


def _host(spec):
    return build_predictor(resolve_spec(spec))


def _table_state(predictor):
    return [
        list(table.rows())
        for component in predictor.components.values()
        for table in component._tables()
    ]


#: Programs per fuzzed test: 60 in tier-1, 300 under the ``fuzz-wide``
#: profile registered in ``tests/conftest.py``.
FUZZ_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "fuzz-wide" else 60
)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(
    body=st.lists(_step, min_size=1, max_size=12),
    repeats=st.integers(1, 60),
    tail=st.lists(_step, max_size=8),
    spec=st.sampled_from(SPECS),
    seed=st.integers(0, 3),
)
def test_fast_paths_match_their_references(body, repeats, tail, spec, seed):
    trace = _build(body, repeats, tail)

    # Timing: columnar loop vs the object-path oracle.
    oracle = simulate_objects(trace, _host(spec), seed=seed)
    assert asdict(simulate(trace, _host(spec), seed=seed)) == asdict(oracle)

    # Functional: run_functional vs the object interpreter.
    vec_host, obj_host = _host(spec), _host(spec)
    vec = run_functional(trace, vec_host)
    obj = run_functional_objects(trace, obj_host)
    assert asdict(vec) == asdict(obj)
    assert _table_state(vec_host) == _table_state(obj_host)
    assert vec_host._instructions_in_epoch == obj_host._instructions_in_epoch

    # Serving: a session fed the program's events vs the functional
    # reference.
    session = PredictorSession(spec, initial_memory=trace.initial_memory)
    session.apply_batch(trace_to_events(trace))
    reference = run_functional(trace, _host(spec))
    assert (session.loads, session.predicted_loads,
            session.correct_predictions, session.instructions) == (
        reference.loads, reference.predicted_loads,
        reference.correct_predictions, reference.instructions,
    )


#: Programs that drive both context-aware components into confident
#: but wrong predictions in the cycle model.
MISPREDICTING_PROGRAMS = (
    # A load grows confident on a constant word, then reads it once
    # more right after a store changed it: CVP predicts the stale value.
    (
        [("branches", PCS[0], [True, False, True]),
         ("load", PCS[1], (WORDS[0], 0), 8, False),
         ("alu", PCS[3], 1, (2,), OpClass.INT_ALU)],
        30,
        [("store", PCS[2], (WORDS[0], 0), 8, 7, 0),
         ("branches", PCS[0], [True, False, True]),
         ("load", PCS[1], (WORDS[0], 0), 8, False)],
    ),
    # A store changes a word every iteration just before two loads read
    # it: CAP's predicted address is probed before the store commits.
    (
        [("branches", PCS[0], [True, False]),
         ("store", PCS[2], (WORDS[1], 0), 8, 3, 1),
         ("load", PCS[1], (WORDS[1], 0), 8, False),
         ("load", PCS[5], (WORDS[1], 0), 8, False)],
        30,
        [],
    ),
)


def test_context_aware_components_mispredict_in_the_cycle_model():
    wrong = dict.fromkeys(("cvp", "cap"), 0)
    for body, repeats, tail in MISPREDICTING_PROGRAMS:
        trace = _build(body, repeats, tail)
        for spec in SPECS:
            host = _host(spec)
            result = simulate(trace, host)
            assert asdict(result) == asdict(
                simulate_objects(trace, _host(spec))
            )
            for name, count in host.stats.incorrect_by.items():
                if name in wrong:
                    wrong[name] += count
    assert wrong["cvp"] >= 1, wrong
    assert wrong["cap"] >= 1, wrong
