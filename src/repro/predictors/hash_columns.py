"""Per-trace ``(index, tag)`` columns of the paper's four components.

Every component indexes and tags its tables from the load PC and the
load's fetch-time raw histories alone, never from predictor state, so
a whole trace's hashes are computed at once: LVP and SAP hash the PC
(:func:`repro.common.hashing.pc_index` / ``pc_tag``), CVP and CAP run
their numpy ``hash_columns`` kernels over the trace's shared
:func:`~repro.branch.history.load_histories`.  The columns are indexed
by the load's ordinal among the trace's predictable loads and
memoized per trace and table geometry (:mod:`repro.common.tracememo`),
so the composite's per-load step in a timing run
(:mod:`repro.composite.step`) and the functional backend
(:mod:`repro.harness.functional_vec`) read one derivation, each cell of
a sweep reusing what an earlier cell of the same geometry built.  A
search holds every trace it touches, each with a dozen geometries, so
the columns are packed arrays of the narrowest unsigned type that
holds them (one or two bytes per load, not ~36).
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.branch.history import load_histories
from repro.common.bits import fold_bits_np, shr_np
from repro.common.tracememo import trace_memo

#: Tag width of the PC-hashed components (LVP, SAP).
PC_TAG_BITS = 14


def pc_index_np(pc: np.ndarray, index_bits: int) -> np.ndarray:
    """Element-wise ``hashing.pc_index`` (no history, no salt)."""
    if index_bits == 0:
        return np.zeros_like(pc)
    base = (
        shr_np(pc, 2)
        ^ shr_np(pc, 2 + index_bits)
        ^ shr_np(pc, 2 + 2 * index_bits + 3)
    )
    return base & np.uint64((1 << index_bits) - 1)


def pc_tag_np(pc: np.ndarray, tag_bits: int) -> np.ndarray:
    """Element-wise ``hashing.pc_tag`` (no history, no salt)."""
    base = (
        shr_np(pc, 2)
        ^ shr_np(pc, 2 + tag_bits)
        ^ shr_np(pc, 2 + 2 * tag_bits + 1)
    )
    return fold_bits_np(base, tag_bits)


def packed(*columns: np.ndarray) -> tuple[array, ...]:
    """Columns as packed arrays of the narrowest unsigned type that
    holds their values."""
    out = []
    for column in columns:
        dtype = np.min_scalar_type(int(column.max()) if column.size else 0)
        out.append(array(dtype.char, column.astype(dtype).tobytes()))
    return tuple(out)


def _derive(trace, component) -> tuple:
    histories = load_histories(trace)
    name = component.geometry_key[0]
    if name == "pc":
        index_bits = component.geometry_key[1]
        return (packed(
            pc_index_np(histories.pc, index_bits),
            pc_tag_np(histories.pc, PC_TAG_BITS),
        ),)
    if name == "cvp":
        return tuple(packed(index, tag) for index, tag in component.hash_columns(
            histories.pc, histories.direction, histories.path
        ))
    return (packed(*component.hash_columns(histories.pc, histories.load_path)),)


def trace_hash_columns(trace, component) -> tuple:
    """``component``'s ``(index, tag)`` packed column pair per table
    (three for CVP, one otherwise) over ``trace``'s predictable loads,
    built once per trace and ``component.geometry_key``."""
    return trace_memo(
        trace, ("hash columns",) + component.geometry_key,
        lambda: _derive(trace, component),
    )
