"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.common.rng import DeterministicRng
from repro.predictors.types import CHOSEN, PREDICTED, slot_names

#: ``pytest --hypothesis-profile=fuzz-wide`` widens the fuzzed
#: equivalence suite (``tests/test_fuzz_equivalence.py``, the
#: composite's bound step against its method path and the functional
#: backend under table fusion included), the shared
#: load-history test (``tests/test_load_histories.py``), the branch
#: hash-column test (``tests/test_branch_hash_columns.py``) and the
#: memory-image packing test (``tests/test_image_serialization.py``)
#: from their tier-1 60 examples per test to 300.
settings.register_profile("fuzz-wide", max_examples=300)


@pytest.fixture(autouse=True)
def _no_ambient_results_db(monkeypatch):
    """Keep the results database out of tests that didn't opt in.

    A developer's ``REPRO_RESULTS_DB_DIR`` would otherwise turn sweep
    cells into ``cached`` outcomes under tests asserting ``ok``, and
    leak per-test usage into the process-wide totals.
    """
    from repro.harness import resilient, resultsdb

    monkeypatch.delenv(resultsdb.ENV_VAR, raising=False)
    resultsdb.reset_active_db()
    resilient.reset_db_usage_totals()
    yield
    resultsdb.reset_active_db()
    resilient.reset_db_usage_totals()


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234, "tests")


def alone(name: str, entries: int):
    """``name`` alone: the one-component plain composite a ``component``
    spec builds."""
    from repro.harness.runner import build_predictor

    return build_predictor(
        {"kind": "component", "name": name, "entries": entries}
    )


def method_path(host):
    """``host``, a composite, on its method path: each component's class
    swapped for a trivial subclass, which the bound step rejects
    (:func:`repro.composite.step.step_unsupported_reason`), so every
    load goes through the components' own ``predict`` and ``train``,
    the reference the step is held to."""
    from repro.composite.step import COMPONENT_TYPES, step_unsupported_reason

    for component in host.components.values():
        cls = type(component)
        assert cls in COMPONENT_TYPES.values()
        component.__class__ = _reference_type(cls)
    assert step_unsupported_reason(host) is not None
    return host


_REFERENCE_TYPES: dict = {}


def _reference_type(cls):
    if cls not in _REFERENCE_TYPES:
        _REFERENCE_TYPES[cls] = type(f"Reference{cls.__name__}", (cls,), {})
    return _REFERENCE_TYPES[cls]


def make_probe(
    pc: int = 0x1000,
    direction: int = 0,
    path: int = 0,
    load_path: int = 0,
    inflight: int = 0,
) -> tuple[int, int, int, int, int, int]:
    """A load's six fields, the arguments of a component's
    ``predict`` (no ordinal: hashes come from the raw histories)."""
    return pc, -1, direction, path, load_path, inflight


def chosen_prediction(decision) -> int | None:
    """The chosen slot's predicted int of a decision record, or None."""
    slot = decision[CHOSEN]
    return None if slot < 0 else decision[PREDICTED + slot]


def slots_named(host, mask: int) -> set[str]:
    """The names of ``host``'s slots set in ``mask``."""
    return set(slot_names(mask, host.slot_names))


def make_outcome(
    pc: int = 0x1000,
    addr: int = 0x8000,
    size: int = 8,
    value: int = 42,
    direction: int = 0,
    path: int = 0,
    load_path: int = 0,
) -> tuple[int, ...]:
    """A component's training arguments for one executed load: its
    fetch-time fields and ``(addr, size, value)``."""
    return (*make_probe(pc, direction, path, load_path), addr, size, value)


def train_constant(predictor, pc: int, value: int, times: int,
                   addr: int = 0x9000, **histories) -> None:
    """Feed ``times`` identical outcomes (same pc/addr/value)."""
    for _ in range(times):
        predictor.train(*make_outcome(pc=pc, addr=addr, value=value, **histories))


def train_strided(predictor, pc: int, base: int, stride: int, times: int,
                  value_fn=None, **histories) -> None:
    """Feed ``times`` outcomes with a strided address pattern."""
    for i in range(times):
        value = value_fn(i) if value_fn else 7
        predictor.train(*make_outcome(
            pc=pc, addr=base + i * stride, value=value, **histories
        ))


def memo_entries(trace, kind: str) -> dict:
    """``trace``'s entries of one kind in the per-trace memo
    (:mod:`repro.common.tracememo`), keyed by the rest of their key:
    ``"frontend"`` streams, ``"hierarchy"`` recordings, ``"hash
    columns"``, ``"functional"`` batches, ``"load histories"``."""
    from repro.common import tracememo

    return {
        key[1:]: value
        for key, value in tracememo._memo.get(trace, {}).items()
        if key[0] == kind
    }
