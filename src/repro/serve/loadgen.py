"""Trace-replaying load generator for a running prediction server.

:func:`trace_to_events` turns a workload trace (store-backed when
``REPRO_TRACE_CACHE_DIR`` is set) into the instruction-event stream a
:class:`~repro.serve.session.PredictorSession` consumes.
:func:`run_loadgen` (``repro-lvp loadgen --connect HOST:PORT``) drives
N concurrent sessions against a server -- each over its own
connection, each with a pipeline window of in-flight ``apply``
requests -- and reports per-request latency percentiles (p50/p95/p99,
max), throughput in requests and events per second, and every failed
request by error code.  Each call names its sessions under a fresh
random prefix, so repeated durable runs against one server never try
to reopen a session an earlier run closed.

The repository's performance record is ``perfbench/``, not this
module; its ``serve_durable`` workload reuses :func:`trace_to_events`.
"""

from __future__ import annotations

import asyncio
import math
import time
import uuid
from collections import deque
from fractions import Fraction

from repro.isa.columns import FLAG_PREDICTABLE, FLAG_TAKEN
from repro.isa.instruction import (
    OP_BRANCH_FIRST,
    OP_BRANCH_LAST,
    OP_LOAD,
    OP_STORE,
    OpClass,
)
from repro.serve.client import ServeClient, ServeError

_OP_BRANCH_COND = int(OpClass.BRANCH_COND)

#: Resubmissions of one chunk after ``backpressure`` before giving up.
MAX_BACKPRESSURE_RETRIES = 200


def trace_to_events(trace) -> list[dict]:
    """Flatten a trace into the session event vocabulary.

    Branches, stores, and loads become explicit events; runs of
    instructions the predictor never sees (ALU work) coalesce into
    ``tick`` events so the epoch clock still advances instruction-for-
    instruction (sessions tick once per explicit event themselves).
    """
    events: list[dict] = []
    append = events.append
    ticks = 0
    cols = trace.pack()
    for pc, op, addr, size, value, flags in zip(
        cols.pc, cols.op, cols.addr, cols.size, cols.value, cols.flags
    ):
        if op == OP_LOAD:
            event = {
                "k": "l", "pc": pc, "addr": addr, "size": size,
                "value": value, "pred": bool(flags & FLAG_PREDICTABLE),
            }
        elif op == OP_STORE:
            event = {
                "k": "s", "pc": pc, "addr": addr, "size": size,
                "value": value,
            }
        elif OP_BRANCH_FIRST <= op <= OP_BRANCH_LAST:
            event = {
                "k": "b", "pc": pc, "taken": bool(flags & FLAG_TAKEN),
                "cond": op == _OP_BRANCH_COND,
            }
        else:
            ticks += 1
            continue
        if ticks:
            append({"k": "t", "n": ticks})
            ticks = 0
        append(event)
    if ticks:
        append({"k": "t", "n": ticks})
    return events


def percentile_ns(sorted_ns: list[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending latency list.

    ``rank = ceil(n * fraction)``, computed exactly: the obvious float
    ceil misfires at exact boundaries (``0.7 * 10`` is
    ``7.000000000000001`` in binary floating point, so p70 of 10
    samples would read rank 8 instead of 7).  Routing the fraction
    through its decimal literal (``Fraction(str(...))``) keeps the
    multiply-and-ceil in exact rational arithmetic.
    """
    if not sorted_ns:
        return 0
    rank = math.ceil(len(sorted_ns) * Fraction(str(fraction)))
    return sorted_ns[min(len(sorted_ns), max(1, rank)) - 1]


async def _drive_session(
    host: str,
    port: int,
    session_id: str,
    spec: dict | None,
    workload: dict | None,
    chunks: list[list[dict]],
    pipeline_depth: int,
    latencies: list[int],
    tallies: dict,
    durable: bool = False,
) -> None:
    """Replay one session's chunks with a window of in-flight requests.

    A refused ``open`` or ``close`` counts as one failed request under
    ``error_codes``, like a refused ``apply``; a refused ``open`` skips
    the session's replay.
    """
    client = await ServeClient.connect(host, port)
    try:
        open_params: dict = {"session": session_id, "spec": spec}
        if durable:
            open_params["durable"] = True
        if workload is not None:
            open_params["workload"] = workload
        opened = await _call(client, "open", open_params, tallies)
        if opened is None:
            return
        next_seq = int(opened.get("applied_seq", 1)) + 1 if durable else None
        window: deque = deque()
        for index, chunk in enumerate(chunks):
            params = {"session": session_id, "events": chunk}
            if next_seq is not None:
                params["seq"] = next_seq + index
            while len(window) >= pipeline_depth:
                await _settle_apply(client, window.popleft(), latencies,
                                    tallies)
            window.append(await _launch(client, "apply", params))
        while window:
            await _settle_apply(client, window.popleft(), latencies, tallies)
        close_params: dict = {"session": session_id}
        if next_seq is not None:
            close_params["seq"] = next_seq + len(chunks)
        closed = await _call(client, "close", close_params, tallies)
        if closed is not None:
            tallies["sessions"].append(closed["closed"])
    finally:
        tallies["stream_errors"] += len(client.stream_errors)
        await client.close()


async def _launch(client: ServeClient, op: str, params: dict):
    start = time.perf_counter_ns()
    return op, params, start, await client.submit(op, **params)


async def _settle(client: ServeClient, inflight, tallies: dict):
    """Await one in-flight request; retry (re-submit) on backpressure.

    Returns ``(result, latency_ns)``, or ``None`` once a refusal is
    tallied under ``error_codes``.
    """
    op, params, start, future = inflight
    retries = 0
    while True:
        try:
            result = await future
        except ServeError as exc:
            if (exc.code != "backpressure"
                    or retries == MAX_BACKPRESSURE_RETRIES):
                tallies["errors"] += 1
                code_counts = tallies["error_codes"]
                code_counts[exc.code] = code_counts.get(exc.code, 0) + 1
                return None
            retries += 1
            tallies["backpressure_retries"] += 1
            # An explicitly rejected request was never applied or
            # WAL-logged, so resubmitting it -- with the same seq, in
            # durable mode -- is safe.
            await asyncio.sleep(0.0005 * retries)
            op, params, start, future = await _launch(client, op, params)
            continue
        return result, time.perf_counter_ns() - start


async def _call(client: ServeClient, op: str, params: dict, tallies: dict):
    """One request, awaited at once; its result or ``None`` if refused."""
    settled = await _settle(client, await _launch(client, op, params), tallies)
    return None if settled is None else settled[0]


async def _settle_apply(
    client: ServeClient,
    inflight,
    latencies: list[int],
    tallies: dict,
) -> None:
    settled = await _settle(client, inflight, tallies)
    if settled is not None:
        latencies.append(settled[1])
        tallies["ok"] += 1


async def run_loadgen(
    host: str,
    port: int,
    events: list[dict],
    spec: dict | None,
    workload: dict | None = None,
    sessions: int = 1,
    events_per_request: int = 256,
    pipeline_depth: int = 4,
    durable: bool = False,
) -> dict:
    """Drive ``sessions`` concurrent replays; returns the report dict.

    With ``durable=True`` each session opens with ``durable: true`` and
    stamps its ``apply``/``close`` requests with contiguous sequence
    numbers, exercising the server's write-ahead log on every request.
    Requests from one session travel a single connection, so pipelined
    seqs arrive (and execute) in order.
    """
    chunks = [
        events[i:i + events_per_request]
        for i in range(0, len(events), events_per_request)
    ]
    latencies: list[int] = []
    tallies: dict = {
        "ok": 0, "errors": 0, "backpressure_retries": 0,
        "stream_errors": 0, "error_codes": {}, "sessions": [],
    }
    prefix = f"loadgen-{uuid.uuid4().hex[:8]}"
    started = time.perf_counter()
    await asyncio.gather(*[
        _drive_session(
            host, port, f"{prefix}-{index}", spec, workload,
            chunks, pipeline_depth, latencies, tallies, durable=durable,
        )
        for index in range(sessions)
    ])
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    closed = tallies["sessions"]
    events_applied = sum(s["events"] for s in closed)
    loads = sum(s["loads"] for s in closed)
    predicted = sum(s["predicted_loads"] for s in closed)
    correct = sum(s["correct_predictions"] for s in closed)
    return {
        "p50_ns": percentile_ns(ordered, 0.50),
        "p95_ns": percentile_ns(ordered, 0.95),
        "p99_ns": percentile_ns(ordered, 0.99),
        "max_ns": ordered[-1] if ordered else 0,
        "requests_ok": tallies["ok"],
        "requests_failed": tallies["errors"],
        "error_codes": tallies["error_codes"],
        "backpressure_retries": tallies["backpressure_retries"],
        "stream_errors": tallies["stream_errors"],
        "sessions": sessions,
        "events_per_request": events_per_request,
        "pipeline_depth": pipeline_depth,
        "durable": durable,
        "events_applied": events_applied,
        "loads": loads,
        "predicted_loads": predicted,
        "accuracy": (correct / predicted) if predicted else 0.0,
        "elapsed_s": elapsed,
        "throughput_rps": tallies["ok"] / elapsed if elapsed else 0.0,
        "throughput_eps": events_applied / elapsed if elapsed else 0.0,
    }


__all__ = [
    "MAX_BACKPRESSURE_RETRIES",
    "percentile_ns",
    "run_loadgen",
    "trace_to_events",
]
