"""An off-by-one in one component's table index, injected on the vector
functional path only, must not pass silently.

Two independent checks guard that path: the ``FunctionalResult`` must
equal the object interpreter's (``tests/oracles/functional_loop.py``),
and the tables' ``rows()`` must equal the object-run tables entry for
entry, stale payloads included.  The host is a one-LVP plain composite.
"""

from dataclasses import asdict

import pytest

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness import functional_vec
from repro.workloads.generator import generate_trace

from oracles.functional_loop import run_functional_objects


def _off_by_one_load(index, tag, sets):
    """Load ``j`` reads load ``j + 1``'s index (its own tag)."""
    return index[1:] + index[:1], tag


def _off_by_one_set(index, tag, sets):
    """Every load's index is one set too far (modulo the table)."""
    return type(index)(index.typecode, [(i + 1) % sets for i in index]), tag


def _run_both(trace, fault, monkeypatch):
    exact = functional_vec.trace_hash_columns

    def faulty(trace, component):
        ((index, tag),) = exact(trace, component)
        return (fault(index, tag, 1 << component.geometry_key[1]),)

    config = CompositeConfig().with_entries(64, 0, 0, 0).plain()
    vec_host = CompositePredictor(config)
    obj_host = CompositePredictor(config)
    with monkeypatch.context() as patch:
        patch.setattr(functional_vec, "trace_hash_columns", faulty)
        vec = asdict(functional_vec.run_functional_vec(trace, vec_host))
    obj = asdict(run_functional_objects(trace, obj_host))

    def rows(host):
        return [list(t.rows()) for t in host.components["lvp"]._tables()]

    return vec != obj, rows(vec_host) != rows(obj_host)


@pytest.mark.parametrize("workload", ["listing1", "coremark"])
def test_load_off_by_one_fails_both_checks(workload, monkeypatch):
    trace = generate_trace(workload, 5_000, 1)
    result_differs, rows_differ = _run_both(
        trace, _off_by_one_load, monkeypatch
    )
    assert result_differs
    assert rows_differ


def test_set_off_by_one_fails_the_table_state_check(monkeypatch):
    """Shifting every index by one set relabels sets one-to-one, so
    hits, misses and aliasing -- and hence the result -- are unchanged;
    only the table-state check can see it."""
    trace = generate_trace("coremark", 5_000, 1)
    result_differs, rows_differ = _run_both(
        trace, _off_by_one_set, monkeypatch
    )
    assert not result_differs
    assert rows_differ


def test_without_a_fault_both_checks_pass(monkeypatch):
    trace = generate_trace("coremark", 5_000, 1)
    assert _run_both(
        trace, lambda index, tag, sets: (index, tag), monkeypatch
    ) == (False, False)
