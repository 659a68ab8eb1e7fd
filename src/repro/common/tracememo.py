"""The one memo of data derived from a trace alone.

Load histories, front-end streams, hierarchy recordings, per-geometry
hash rows and columns and the functional backend's load batch depend
on nothing but the trace and a small key, so each is built once, on
first use, and kept here under its consumer's key.  Entries are keyed
weakly on the :class:`~repro.isa.trace.Trace` object, so they die with
their trace; :func:`clear_trace_memo` (called by
:func:`repro.harness.runner.clear_caches`) drops them all.  A build
that raises (an interrupted recording pass) memoizes nothing.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

# trace -> key -> the value built under it.
_memo: WeakKeyDictionary = WeakKeyDictionary()


def trace_memo(trace, key: tuple, build):
    """``build()``, computed once per ``(trace, key)``."""
    entries = _memo.get(trace)
    if entries is None:
        entries = _memo[trace] = {}
    value = entries.get(key)
    if value is None:
        value = entries[key] = build()
    return value


def clear_trace_memo() -> None:
    """Drop every memoized entry (the next run of each trace rebuilds)."""
    _memo.clear()
