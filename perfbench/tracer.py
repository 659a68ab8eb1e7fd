"""Layer tracing from outside the program.

A :class:`Tracer` replaces chosen functions -- methods on the program's
own classes, or the module attribute a caller resolves at call time --
with timing wrappers, and restores the originals on exit.  It never
substitutes subclasses: code such as the functional backend's
``vector_unsupported_reason`` dispatches on exact types, and a subclass
would silently send the run down another path.

Each wrapped call is a span with a layer name, start, end and parent.
Self time (a span's duration minus the part its wrapped children
cover) is accumulated per layer as the spans close, so the per-layer
totals are exact however many calls a run makes.  The span records
themselves are kept in memory -- all of the top levels, and deeper
ones up to a cap -- and written out when the run ends; calls past the
cap still count toward the totals.

Only synchronous functions may be wrapped: a span is open exactly while
its function runs, so spans nest as a stack even inside an event loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import FunctionType

#: Span records kept in memory per traced run, past the outline below.
SPAN_CAP = 100_000
#: Spans this close to a root are always kept, so the outline of a run
#: (its cells, core runs, requests) survives the cap.
KEEP_DEPTH = 2


class Tracer:
    """Per-layer call counts, inclusive and self time, plus span records."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.layers: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (layer, start_ns, end_ns, id, parent_id)
        self.span_cap = span_cap
        self.dropped = 0
        self._stack: list[list[int]] = []  # open spans: [child_ns, id]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- spans -----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``."""
        fn = getattr(owner, attr)
        if not isinstance(fn, FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self.patch(owner, attr, self._traced(fn, layer))

    def _traced(self, fn, layer: str):
        stat = self.layers.setdefault(layer, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        next_id = self._ids.__next__
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, next_id()]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent_id = parent[1]
                else:
                    parent_id = -1
                if len(stack) <= KEEP_DEPTH or len(spans) < cap:
                    spans.append((layer, start, end, frame[1], parent_id))
                else:
                    tracer.dropped += 1

        return traced

    @contextmanager
    def span(self, layer: str):
        """A span around a block (the benchmark's own root spans)."""
        stat = self.layers.setdefault(layer, [0, 0, 0])
        frame = [0, next(self._ids)]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            elapsed = end - start
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]
            parent_id = -1
            if self._stack:
                self._stack[-1][0] += elapsed
                parent_id = self._stack[-1][1]
            self.spans.append((layer, start, end, frame[1], parent_id))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- results ---------------------------------------------------------

    def calls(self, *layers: str) -> int:
        return sum(self.layers.get(layer, (0, 0, 0))[0] for layer in layers)

    def inclusive_s(self, *layers: str) -> float:
        return sum(self.layers.get(layer, (0, 0, 0))[1] for layer in layers) / 1e9

    def self_s(self, *layers: str) -> float:
        return sum(self.layers.get(layer, (0, 0, 0))[2] for layer in layers) / 1e9

    def reconcile(self, roots: tuple[str, ...]) -> dict:
        """Split the traced total into layer self times plus remainder.

        ``roots`` are the benchmark's own spans; their self time is the
        part of the total no wrapped layer covers (the unattributed
        remainder).  ``error_s`` is what the split fails to account for
        and should be zero up to clock granularity.
        """
        total = self.inclusive_s(*roots)
        unattributed = self.self_s(*roots)
        layer_self = {
            name: stat[2] / 1e9 for name, stat in self.layers.items()
            if name not in roots and stat[0]
        }
        attributed = sum(layer_self.values())
        top = max(layer_self, key=layer_self.get) if layer_self else None
        return {
            "total_s": total,
            "attributed_s": attributed,
            "unattributed_s": unattributed,
            "error_s": total - attributed - unattributed,
            "top_layer": top,
            "top_layer_share": (layer_self[top] / total) if top and total else 0.0,
            "layer_self_s": layer_self,
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write the kept spans (one JSON object a line) after ``meta``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({
                **meta, "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
            }) + "\n")
            for layer, start, end, span_id, parent_id in self.spans:
                out.write(json.dumps({
                    "name": layer, "start_ns": start, "end_ns": end,
                    "id": span_id, "parent": parent_id,
                }) + "\n")
