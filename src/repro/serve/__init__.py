"""Online prediction service: stateful sessions over the wire.

Everything else in the repository drives the composite predictor from
inside the offline batch simulator; this package turns it into an
*online* component -- the way LDBP and the speculative-execution
literature treat value prediction, as a low-latency service on the
fetch path.  Four layers:

* :mod:`repro.serve.session` -- a standalone stateful
  ``predict``/``train`` API over any :func:`repro.composite.build.
  build_predictor` spec, decoupled from the timing model, with
  per-session memory accounting and LRU eviction.
* :mod:`repro.serve.protocol` -- length-prefixed binary framing and
  the structured error vocabulary shared by server and client.
* :mod:`repro.serve.server` -- an asyncio server with a micro-batching
  scheduler, bounded queues with explicit backpressure, per-request
  timeouts, and graceful drain on SIGTERM.
* :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` -- a
  pipelining client and a trace-replaying load generator that drives a
  running server and reports throughput and p50/p95/p99 latency.
* :mod:`repro.serve.durability` -- write-ahead logs, checkpoints, and
  tombstones that make durable sessions survive kill -9 with
  exactly-once semantics (:mod:`repro.serve.crashtest` proves it).
* the sharded tier -- :mod:`repro.serve.ring` (consistent hashing),
  :mod:`repro.serve.shardmgr` (worker-process lifecycle + fencing),
  and :mod:`repro.serve.router` (one front address that routes
  sessions onto N worker processes, restarts dead ones, and live-
  migrates sessions between shards) -- scales the GIL-bound server
  across cores behind the same protocol.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.session": (
        "PredictorSession", "SessionError", "SessionManager", "spec_from_name",
    ),
})

__all__ = [
    "PredictorSession",
    "SessionError",
    "SessionManager",
    "spec_from_name",
]
