"""The ``serve_durable`` workload: a closed loop against the sharded tier.

One client process (this one) keeps 2 connections to
``repro-lvp serve --shards 2 --data-dir D``.  Each pass opens one
durable session per connection, each replaying a different workload
trace as seq-stamped ``apply`` requests of 32 events with up to 4 in
flight, then closes them.  Session ids are picked so the two sessions
land on different shards.  Every request goes client -> router ->
worker -> WAL.

Correctness: each session's final counters must equal
``run_functional`` on the same trace with the same predictor.

The traced run measures the layers in-process: an in-process durable
:class:`PredictionServer` fed the same load with the tracer on, the
router hop as the p50 difference between the tier and the same load
sent straight to the owning worker's port, and WAL shipping replayed
over the in-process server's WAL, traced on its own.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import deque

from benchlib import (
    ROOT,
    SETUP_REPEATS,
    SRC,
    Budget,
    Pace,
    input_seed,
    note,
    peak_rss_mb_pids,
    percentile,
    tail,
)
from sim_workloads import wrap_predictors, predictor_layers
from tracer import Tracer

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.harness.functional import run_functional
from repro.serve import protocol, standby
from repro.serve.client import ServeClient, ServeError
from repro.serve.durability import SessionDurability
from repro.serve.loadgen import trace_to_events
from repro.serve.ring import HashRing
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import (
    SEQ_CACHE_BYTES,
    SEQ_CACHE_SIZE,
    PredictorSession,
)
from repro.workloads import generator, store
from repro.workloads.generator import ensure_stored, generate_trace

#: One trace per session, so the two sessions replay different programs.
SESSION_WORKLOADS = ("gcc2k", "mcf")
TRACE_LENGTH = 20_000
ENTRIES = 256
SPEC = {"kind": "composite", "entries": ENTRIES}
EVENTS_PER_REQUEST = 32
PIPELINE_DEPTH = 4
SHARDS = 2
FSYNC_INTERVAL = 0.02
MAX_BATCH = 16
#: Resubmissions of one request after ``backpressure`` before it counts
#: as refused.
RETRY_BUDGET = 200
#: Seconds the tier may take to print its ``serving on`` line.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

ROOTS = ("bench.serve",)


def config() -> dict:
    return {
        "workloads": list(SESSION_WORKLOADS), "trace_length": TRACE_LENGTH,
        "predictor": "composite", "entries": ENTRIES,
        "events_per_request": EVENTS_PER_REQUEST,
        "pipeline_depth": PIPELINE_DEPTH, "sessions": len(SESSION_WORKLOADS),
        "shards": SHARDS, "fsync_interval": FSYNC_INTERVAL,
        "max_batch": MAX_BATCH,
    }


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def prepare_inputs(ws, seed: int) -> tuple[str, list[dict]]:
    """Warm a fresh trace store and cut each trace into request chunks."""
    trace_dir = str(ws.fresh("traces"))
    os.environ[store.ENV_VAR] = trace_dir
    generator.clear_trace_caches()
    plans = []
    for name in SESSION_WORKLOADS:
        ensure_stored(name, TRACE_LENGTH, input_seed(seed))
        trace = generate_trace(name, TRACE_LENGTH, input_seed(seed))
        events = trace_to_events(trace)
        plans.append({
            "workload": {
                "name": name, "length": TRACE_LENGTH,
                "seed": input_seed(seed),
            },
            "chunks": [
                events[i:i + EVENTS_PER_REQUEST]
                for i in range(0, len(events), EVENTS_PER_REQUEST)
            ],
        })
    return trace_dir, plans


def reference_counters(plan: dict) -> dict:
    """What a correct session reports: ``run_functional`` on the trace."""
    w = plan["workload"]
    trace = generate_trace(w["name"], w["length"], w["seed"])
    result = run_functional(
        trace, CompositePredictor(CompositeConfig().homogeneous(ENTRIES))
    )
    return {
        "instructions": result.instructions, "loads": result.loads,
        "predicted_loads": result.predicted_loads,
        "correct_predictions": result.correct_predictions,
    }


# ----------------------------------------------------------------------
# The tier process
# ----------------------------------------------------------------------

class Tier:
    """``repro-lvp serve --shards 2 --data-dir D`` as a child process."""

    def __init__(self, ws, trace_dir: str) -> None:
        self.data_dir = ws.fresh("tier")
        self.log = ws.root / f"{self.data_dir.name}.log"
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.state: dict = {}

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env[store.ENV_VAR] = self.trace_dir
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--shards", str(SHARDS), "--data-dir", str(self.data_dir),
                 "--port", "0", "--max-batch", str(MAX_BATCH),
                 "--fsync-interval", str(FSYNC_INTERVAL)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
        deadline = time.monotonic() + START_TIMEOUT
        line = ""
        while not line.startswith("serving on"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise RuntimeError("tier did not start in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"tier exited early; see {self.log.name}: "
                    + self.log.read_text()[-500:]
                )
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.state = json.loads((self.data_dir / "router.json").read_text())

    def pids(self) -> list[int]:
        return [self.state["router_pid"]] + [
            w["pid"] for w in self.state["workers"].values()
        ]

    def worker_port(self, shard: str) -> int:
        return self.state["workers"][shard]["port"]

    def stop(self) -> None:
        """SIGTERM the router, wait for it, and make sure no worker
        outlives it."""
        if self.proc is None:
            return
        workers = [w["pid"] for w in self.state.get("workers", {}).values()]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.monotonic() + STOP_TIMEOUT
                time.sleep(0.02)
        self.proc = None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------

class Book:
    """Load-generator bookkeeping across every pass of a run."""

    def __init__(self) -> None:
        self.issued = 0
        self.completed = 0
        self.refused = 0
        self.retried = 0
        self.error_codes: dict[str, int] = {}
        self.latencies_ns: list[int] = []
        self.placements: dict[str, str] = {}

    def refuse(self, code: str) -> None:
        self.refused += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def as_dict(self) -> dict:
        return {
            "issued": self.issued, "completed": self.completed,
            "refused": self.refused, "retried": self.retried,
            "error_codes": self.error_codes,
        }


async def _call(client: ServeClient, book: Book, op: str, **params):
    book.issued += 1
    try:
        result = await client.request(op, **params)
    except ServeError as exc:
        book.refuse(exc.code)
        return None
    book.completed += 1
    return result


async def _settle(client: ServeClient, book: Book, inflight) -> None:
    """Await one apply; resubmit on backpressure (never applied then)."""
    start, future, params = inflight
    for attempt in range(RETRY_BUDGET + 1):
        try:
            await future
        except ServeError as exc:
            if exc.code == "backpressure" and attempt < RETRY_BUDGET:
                book.retried += 1
                await asyncio.sleep(0.0005 * (attempt + 1))
                future = await client.submit("apply", **params)
                continue
            book.refuse(exc.code)
            return
        # Latency from the first submit, so retries count as waiting.
        book.latencies_ns.append(time.perf_counter_ns() - start)
        book.completed += 1
        return


async def _replay(client: ServeClient, book: Book, session: str,
                  chunks: list, first_seq: int) -> None:
    window: deque = deque()
    for index, chunk in enumerate(chunks):
        params = {"session": session, "events": chunk,
                  "seq": first_seq + index}
        while len(window) >= PIPELINE_DEPTH:
            await _settle(client, book, window.popleft())
        book.issued += 1
        start = time.perf_counter_ns()
        window.append((start, await client.submit("apply", **params), params))
    while window:
        await _settle(client, book, window.popleft())


def pick_session_ids(ring: HashRing | None, tag: str) -> list[str]:
    """One session id per plan, each owned by a different shard."""
    if ring is None:
        return [f"{tag}-{k}" for k in range(len(SESSION_WORKLOADS))]
    ids = []
    for k, shard in enumerate(ring.shards[:len(SESSION_WORKLOADS)]):
        j = 0
        while ring.lookup(f"{tag}-{k}-{j}") != shard:
            j += 1
        ids.append(f"{tag}-{k}-{j}")
    return ids


async def open_sessions(clients, plans, ids, book) -> list | None:
    """Open one durable session per connection; the first seq of each."""
    opened = await asyncio.gather(*[
        _call(client, book, "open", session=sid, spec=SPEC, durable=True,
              workload=plan["workload"])
        for client, plan, sid in zip(clients, plans, ids)
    ])
    if any(o is None for o in opened):
        return None
    return [int(o.get("applied_seq", 0)) + 1 for o in opened]


async def run_pass(clients, plans, ids, book, first_seqs=None) -> dict:
    """Open (unless already open), replay both traces, close.

    ``apply_s`` covers the replay alone; ``total_s`` the whole pass.
    """
    began = time.perf_counter()
    if first_seqs is None:
        first_seqs = await open_sessions(clients, plans, ids, book)
    if first_seqs is None:
        return {"ok": False, "sessions": []}
    start = time.perf_counter()
    first_latency = len(book.latencies_ns)
    await asyncio.gather(*[
        _replay(client, book, sid, plan["chunks"], seq)
        for client, plan, sid, seq in zip(clients, plans, ids, first_seqs)
    ])
    apply_s = time.perf_counter() - start
    latencies = book.latencies_ns[first_latency:]
    closed = await asyncio.gather(*[
        _call(client, book, "close", session=sid,
              seq=seq + len(plan["chunks"]))
        for client, plan, sid, seq in zip(clients, plans, ids, first_seqs)
    ])
    return {
        "ok": all(closed) and bool(latencies), "apply_s": apply_s,
        "latencies_ns": latencies,
        "total_s": time.perf_counter() - began,
        "sessions": [c["closed"] if c else None for c in closed],
    }


def check_pass(one: dict, plans: list, references: list) -> int:
    """Requests of the pass whose session ended with wrong counters."""
    failed = 0
    for plan, reference, closed in zip(
        plans, references, one["sessions"] or [None] * len(plans)
    ):
        if closed is None or any(
            closed.get(k) != v for k, v in reference.items()
        ):
            failed += len(plan["chunks"]) + 2
    return failed


async def connect_tier(tier: Tier) -> tuple[list, HashRing]:
    clients = [await ServeClient.connect("127.0.0.1", tier.port)
               for _ in SESSION_WORKLOADS]
    shards = await clients[0].request("shards")
    ring = HashRing(shards["ring"]["shards"], shards["ring"]["replicas"])
    return clients, ring


async def close_clients(clients) -> None:
    for client in clients:
        await client.close()


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------

async def _measure(ws, seed: int, seconds: float, import_s: float) -> dict:
    book = Book()
    pace = Pace()
    setups = []
    tier = None
    clients: list = []
    try:
        for rep in range(SETUP_REPEATS):
            if tier is not None:
                await close_clients(clients)
                tier.stop()
            began = time.perf_counter()
            trace_dir, plans = prepare_inputs(ws, seed)
            tier = Tier(ws, trace_dir)
            tier.start()
            clients, ring = await connect_tier(tier)
            ids = pick_session_ids(ring, f"r{rep}p0")
            first_seqs = await open_sessions(clients, plans, ids, book)
            setups.append((time.perf_counter() - began) * pace.factor())
        passes = []
        budget = Budget(seconds)
        while budget.more():
            index = len(passes)
            if index:
                ids = pick_session_ids(ring, f"p{index}")
            for sid in ids:
                book.placements[sid] = ring.lookup(sid)
            passes.append(await run_pass(clients, plans, ids, book,
                                         first_seqs if not index else None))
            passes[-1]["factor"] = pace.factor()
        rss = peak_rss_mb_pids(tier.pids())
        stats = await clients[0].request("stats")
    finally:
        await close_clients(clients)
        if tier is not None:
            tier.stop()
    return {"setups": setups, "passes": passes, "book": book, "rss": rss,
            "stats": stats, "plans": plans, "pace": pace}


def pass_p50_ms(passes: list[dict]) -> float:
    """Median over passes of each pass's apply p50, at reference speed."""
    return statistics.median(
        percentile(sorted(p["latencies_ns"]), 0.5) * p["factor"]
        for p in passes if p["ok"]
    ) / 1e6


def run_serve(ws, seed: int, seconds: float, traced: bool,
              import_s: float) -> dict:
    if traced:
        return run_serve_traced(ws, seed, seconds)
    got = asyncio.run(_measure(ws, seed, seconds, import_s))
    plans, book, passes = got["plans"], got["book"], got["passes"]
    references = [reference_counters(plan) for plan in plans]
    failed = book.refused + sum(check_pass(p, plans, references)
                                for p in passes)
    good = [p for p in passes if p["ok"]]
    ordered = sorted(
        latency * p["factor"] for p in good for latency in p["latencies_ns"]
    )
    fraction, tail_ns = tail(ordered)
    apply_s = [p["apply_s"] * p["factor"] for p in good]
    pace = got["pace"]
    shards = got["stats"].get("shards", {})
    batches = {
        name: entry.get("stats", {}).get("counters", {}).get("mean_batch_size")
        for name, entry in shards.items()
    }
    return {
        "config": config(),
        "attempted": book.issued, "failed": failed,
        "metrics": {
            "setup_s": (import_s * pace.factors[0]
                        + statistics.median(got["setups"])),
            "campaign_s": statistics.median(apply_s),
            "sim_kips": statistics.median(
                sum(s["instructions"] for s in p["sessions"]) / t
                for p, t in zip(good, apply_s)
            ) / 1e3,
            "op_p50_ms": pass_p50_ms(good),
            "op_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": got["rss"],
        },
        "notes": [
            f"{len(passes)} pass(es); op_tail_ms is p{fraction * 100:g} of "
            f"{len(ordered)} apply latencies",
            "events acknowledged per second at reference speed: "
            f"{sum(len(c) for p in plans for c in p['chunks']) * len(good) / sum(apply_s):.0f}",
            f"raw wall apply-phase median "
            f"{statistics.median(p['apply_s'] for p in good):.4f} s; host "
            f"speed factors {min(pace.factors):.3f}..{max(pace.factors):.3f}",
            "requests " + json.dumps(book.as_dict()),
            "placements " + json.dumps(
                {sid: book.placements[sid] for sid in list(book.placements)[:4]}
            ),
            f"worker mean batch sizes {json.dumps(batches)}",
        ],
        "bookkeeping": {**book.as_dict(), "placements": book.placements},
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def wrap_serving(tracer: Tracer) -> None:
    tracer.wrap(protocol, "encode_frame", "serve.protocol.encode")
    tracer.wrap(protocol, "decode_body", "serve.protocol.decode")
    tracer.wrap(PredictionServer, "execute", "serve.server.execute")
    tracer.wrap(PredictorSession, "apply_batch", "serve.session.apply")
    tracer.wrap(SessionDurability, "append", "serve.durability.append")
    tracer.wrap(SessionDurability, "maybe_fsync", "serve.durability.fsync")
    tracer.wrap(SessionDurability, "checkpoint", "serve.durability.checkpoint")
    tracer.wrap(generator, "generate_trace", "workloads")
    wrap_predictors(tracer)


async def _tier_hop(ws, trace_dir, plans, seconds, book_router, book_direct):
    """p50 through the router vs straight to the owning worker."""
    tier = Tier(ws, trace_dir)
    clients = []
    try:
        tier.start()
        clients, ring = await connect_tier(tier)
        pace = Pace()
        passes = []
        budget = Budget(seconds)
        while budget.more():
            ids = pick_session_ids(ring, f"router{len(passes)}")
            passes.append(await run_pass(clients, plans, ids, book_router))
            passes[-1]["factor"] = pace.factor()
        direct_passes = []
        budget = Budget(seconds)
        while budget.more():
            ids = pick_session_ids(ring, f"direct{len(direct_passes)}")
            direct = [
                await ServeClient.connect(
                    "127.0.0.1", tier.worker_port(ring.lookup(sid))
                )
                for sid in ids
            ]
            try:
                direct_passes.append(
                    await run_pass(direct, plans, ids, book_direct)
                )
            finally:
                await close_clients(direct)
            direct_passes[-1]["factor"] = pace.factor()
        stats = await clients[0].request("stats")
    finally:
        await close_clients(clients)
        tier.stop()
    return passes, direct_passes, stats


async def _in_process(ws, plans, tracer: Tracer, book: Book):
    """One untraced and one traced pass against an in-process server."""
    data_dir = ws.fresh("inproc")
    server = PredictionServer(ServerConfig(
        port=0, data_dir=str(data_dir), fsync_interval=FSYNC_INTERVAL,
        max_batch=MAX_BATCH,
    ))
    await server.start()
    try:
        clients = [await ServeClient.connect("127.0.0.1", server.port)
                   for _ in SESSION_WORKLOADS]
        try:
            pace = Pace()
            untraced = await run_pass(
                clients, plans, pick_session_ids(None, "plain"), book
            )
            untraced["factor"] = pace.factor()
            wal_before = server.durability.stats.as_dict()["wal_bytes"]
            wrap_serving(tracer)
            with tracer.span("bench.serve"):
                traced = await run_pass(
                    clients, plans, pick_session_ids(None, "traced"), book
                )
            tracer.restore()  # nothing after the root span is traced
            traced["factor"] = pace.factor()
            wal_bytes = (
                server.durability.stats.as_dict()["wal_bytes"] - wal_before
            )
        finally:
            await close_clients(clients)
    finally:
        await server.drain()
    return untraced, traced, wal_bytes, data_dir


def replay_standby(ws, data_dir) -> tuple[Tracer, int]:
    """Ship the in-process server's whole WAL to a fresh replica set.

    Traced on its own, after the serving trace, so the replica's
    re-execution of the log is charged to ``ingest`` and not to the
    predictor layers of the serving path.  Returns the tracer and the
    bytes shipped.
    """
    replicas = standby.ReplicaSet(
        ws.fresh("replica"), SEQ_CACHE_SIZE, SEQ_CACHE_BYTES
    )
    shipped = 0
    with Tracer() as tracer:
        tracer.wrap(standby, "ship_wal", "serve.standby.ship")
        tracer.wrap(standby.ReplicaSet, "ingest", "serve.standby.ingest")
        while True:
            payload = standby.ship_wal(
                data_dir / "sessions", replicas.cursors()
            )
            shipped += sum(
                len(chunk.get("data", ""))
                for entry in payload.get("sessions", [])
                for chunk in entry.get("chunks") or []
            )
            if not replicas.ingest(payload):
                break
    return tracer, shipped


def run_serve_traced(ws, seed: int, seconds: float) -> dict:
    trace_dir, plans = prepare_inputs(ws, seed)
    references = [reference_counters(plan) for plan in plans]
    book_router, book_direct, book_local = Book(), Book(), Book()
    router_passes, direct_passes, stats = asyncio.run(_tier_hop(
        ws, trace_dir, plans, seconds / 4, book_router, book_direct
    ))
    with Tracer() as tracer:
        untraced, traced, wal_bytes, data_dir = asyncio.run(
            _in_process(ws, plans, tracer, book_local)
        )
    shipping, ship_bytes = replay_standby(ws, data_dir)
    books = (book_router, book_direct, book_local)
    failed = sum(b.refused for b in books) + sum(
        check_pass(p, plans, references)
        for p in router_passes + direct_passes + [untraced, traced]
    )
    workers = [
        entry.get("stats", {}).get("counters", {})
        for entry in stats.get("shards", {}).values()
    ]
    router_ms = pass_p50_ms(router_passes)
    direct_ms = pass_p50_ms(direct_passes)
    sessions = [s for s in traced["sessions"] if s]
    loads = sum(s["loads"] for s in sessions)
    predicted = sum(s["predicted_loads"] for s in sessions)
    correct = sum(s["correct_predictions"] for s in sessions)
    per_layer = {
        "workloads.trace_load_s": tracer.self_s("workloads"),
        "workloads.trace_load_calls": tracer.calls("workloads"),
        "serve.protocol.encode_s": tracer.self_s("serve.protocol.encode"),
        "serve.protocol.encode_calls": tracer.calls("serve.protocol.encode"),
        "serve.protocol.decode_s": tracer.self_s("serve.protocol.decode"),
        "serve.protocol.decode_calls": tracer.calls("serve.protocol.decode"),
        "serve.router.hop_p50_ms": router_ms - direct_ms,
        "serve.server.execute_s": tracer.self_s("serve.server.execute"),
        "serve.server.execute_calls": tracer.calls("serve.server.execute"),
        "serve.server.busy_share": (
            tracer.inclusive_s("serve.server.execute") / traced["total_s"]
        ),
        "serve.server.mean_batch_size": (
            sum(w.get("mean_batch_size", 0.0) for w in workers)
            / max(1, len(workers))
        ),
        "serve.server.peak_queue_depth": max(
            (w.get("peak_queue_depth", 0) for w in workers), default=0
        ),
        "serve.session.apply_s": tracer.self_s("serve.session.apply"),
        "serve.session.apply_calls": tracer.calls("serve.session.apply"),
        "serve.durability.append_s": tracer.self_s("serve.durability.append"),
        "serve.durability.append_calls":
            tracer.calls("serve.durability.append"),
        "serve.durability.fsync_s": tracer.self_s("serve.durability.fsync"),
        "serve.durability.fsync_calls": tracer.calls("serve.durability.fsync"),
        "serve.durability.checkpoint_s":
            tracer.self_s("serve.durability.checkpoint"),
        "serve.durability.wal_bytes": wal_bytes,
        "serve.standby.ship_s": shipping.self_s("serve.standby.ship"),
        "serve.standby.ingest_s": shipping.self_s("serve.standby.ingest"),
        "serve.standby.ship_bytes": ship_bytes,
        "composite.coverage": predicted / loads if loads else 0.0,
        "composite.accuracy": correct / predicted if predicted else 0.0,
        "trace_overhead": (traced["total_s"] * traced["factor"]
                           / (untraced["total_s"] * untraced["factor"])),
    }
    per_layer.update(predictor_layers(tracer))
    attempted = sum(b.issued for b in books)
    note(f"router p50 {router_ms:.3f} ms, direct p50 {direct_ms:.3f} ms "
         "(at reference speed)")
    return {
        "config": config(), "attempted": attempted, "failed": failed,
        "per_layer": per_layer, "tracer": tracer, "roots": ROOTS,
        "notes": [
            "router-mode requests " + json.dumps(book_router.as_dict()),
            "direct-mode requests " + json.dumps(book_direct.as_dict()),
        ],
        "bookkeeping": {
            "router": book_router.as_dict(), "direct": book_direct.as_dict(),
            "in_process": book_local.as_dict(),
        },
    }
