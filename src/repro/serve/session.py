"""Stateful predictor sessions: the serving layer's core abstraction.

A :class:`PredictorSession` owns one predictor assembly (built from the
same declarative specs :func:`repro.harness.runner.build_predictor`
accepts), its speculative histories, and a private memory image, and
exposes the predictor as a standalone online API -- ``predict(pc)`` /
``train(outcome)`` plus a streaming ``apply_batch`` form that replays
instruction events (branches, stores, loads, ticks) exactly the way the
functional harness does, through the harness's own per-load step
(:func:`repro.harness.functional.probe_load` /
:func:`repro.harness.functional.judge_and_train`) and rendering each
decision's slots by name, so a session driven
over the wire is bit-identical to the same spec driven in-process
(``tests/test_serve_equivalence.py``).

:class:`SessionManager` holds many sessions keyed by id, accounts their
estimated memory, and LRU-evicts the idlest sessions when a count or
byte budget is exceeded -- the server never grows without bound under
session churn.  With a :class:`~repro.serve.durability.DurabilityManager`
attached, sessions opened ``durable`` are write-ahead logged, eviction
*spills* them (flush + checkpoint) instead of discarding state, and a
miss on a spilled id transparently recovers it from disk.

:class:`SeqTracker` implements the exactly-once request contract both
durable and in-memory sessions share: per-session monotonically
increasing ``seq`` numbers, a bounded cache of recent responses for
replayed sequence numbers, and structured errors for gaps.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import OrderedDict, deque

from repro.branch.history import HistorySet
from repro.composite.config import CompositeConfig
from repro.harness.functional import judge_and_train, probe_load
from repro.memory.image import MemoryImage
from repro.pipeline.vp import NoPredictor
from repro.predictors.types import (
    CHOSEN,
    CONFIDENT,
    PREDICTED,
    SQUASHED,
    address_of,
    size_of,
    slot_names,
)

#: Access sizes a session accepts for load/store events (the ISA's).
_VALID_SIZES = (1, 2, 4, 8)

#: Longest workload a remote ``open`` may ask the server to resolve
#: (initial-memory lookup); bounds per-session resolve cost.
MAX_WORKLOAD_LENGTH = 2_000_000

#: Predictor short names accepted on the wire and by the CLI, mapping
#: to :func:`spec_from_name` specs.
PREDICTOR_NAMES = (
    "none", "composite", "eves-8kb", "eves-32kb",
    "lvp", "sap", "cvp", "cap", "lap", "svp",
)


#: Ceiling on instruction events in one ``apply`` request (also the
#: cap a WAL replay trusts -- recovery never re-executes more per
#: record than a live request could have carried).
MAX_EVENTS_PER_REQUEST = 8192

#: Responses remembered per session for replayed sequence numbers; a
#: client retrying within this window gets the cached answer instead
#: of a double execution.
SEQ_CACHE_SIZE = 256

#: Byte watermark on the same cache: entries are also evicted oldest
#: first once their (JSON-serialized) payloads exceed this, so a
#: session whose responses are large -- apply results carry one record
#: per load -- cannot grow its dedup cache with its lifetime.  The
#: newest entry is always retained regardless of size: the most recent
#: response must stay replayable or an immediate retry would fail.
SEQ_CACHE_BYTES = 256 * 1024


class SessionError(ValueError):
    """A session-layer failure with a wire-friendly error code."""

    def __init__(self, message: str, code: str = "bad-event") -> None:
        super().__init__(message)
        self.code = code


class SeqTracker:
    """Exactly-once bookkeeping for one session's mutating requests.

    The contract (shared by durable and purely in-memory sessions):

    * the next new request must carry ``seq == applied_seq + 1``;
    * ``seq <= applied_seq`` is a *replay* -- the cached response is
      returned (never a re-execution); a replay older than the cache
      window fails with ``seq-too-old``;
    * ``seq > applied_seq + 1`` is a *gap* (the client skipped an
      acknowledgement) and fails with ``seq-gap``.

    Cache entries are ``("ok", result)`` or ``("error", code, message)``
    tuples -- the request envelope's ``id`` differs between a request
    and its retry, so only the semantic payload is cached.

    The cache is bounded twice over -- ``cache_size`` entries *and* a
    ``cache_bytes`` watermark on the serialized payloads -- so neither
    long-lived sessions nor fat responses grow it without limit.  Both
    bounds (and the surviving entries) ride checkpoint headers, so a
    spilled/recovered session keeps the exact replay window it had.
    """

    __slots__ = ("applied_seq", "_cache", "_sizes", "_total_bytes",
                 "cache_size", "cache_bytes")

    def __init__(
        self,
        cache_size: int = SEQ_CACHE_SIZE,
        cache_bytes: int = SEQ_CACHE_BYTES,
    ) -> None:
        self.applied_seq = 0
        self.cache_size = max(1, cache_size)
        self.cache_bytes = max(1, cache_bytes)
        self._cache: OrderedDict[int, tuple] = OrderedDict()
        self._sizes: dict[int, int] = {}
        self._total_bytes = 0

    def check(self, seq) -> tuple | None:
        """Validate ``seq``; ``None`` means "new -- execute it".

        Returns the cached response entry for a replayed ``seq`` and
        raises :class:`SessionError` for gaps, stale replays, and
        malformed values.
        """
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise SessionError(
                f"'seq' must be a positive int, got {seq!r}",
                code="bad-seq",
            )
        if seq <= self.applied_seq:
            entry = self._cache.get(seq)
            if entry is None:
                raise SessionError(
                    f"seq {seq} was already applied and its response "
                    f"has aged out of the replay cache (window: "
                    f"{self.cache_size} entries / {self.cache_bytes} "
                    "bytes)",
                    code="seq-too-old",
                )
            return entry
        if seq > self.applied_seq + 1:
            raise SessionError(
                f"seq {seq} skips ahead of applied seq "
                f"{self.applied_seq} (gap); requests must be applied "
                "in order",
                code="seq-gap",
            )
        return None

    @staticmethod
    def entry_bytes(entry: tuple) -> int:
        """The byte weight one cache entry is charged (its JSON size)."""
        try:
            return len(json.dumps(list(entry), separators=(",", ":")))
        except (TypeError, ValueError):
            return 64  # unserializable payloads get a nominal charge

    def record(self, seq: int, entry: tuple) -> None:
        """Mark ``seq`` applied and cache its response entry."""
        self.applied_seq = seq
        self._insert(seq, entry, self.entry_bytes(entry))
        self._trim()

    def _insert(self, seq: int, entry: tuple, size: int) -> None:
        previous = self._sizes.pop(seq, 0)
        self._total_bytes -= previous
        self._cache[seq] = entry
        self._sizes[seq] = size
        self._total_bytes += size

    def _trim(self) -> None:
        """Evict oldest entries past either watermark (keep the newest)."""
        while len(self._cache) > 1 and (
            len(self._cache) > self.cache_size
            or self._total_bytes > self.cache_bytes
        ):
            seq, _ = self._cache.popitem(last=False)
            self._total_bytes -= self._sizes.pop(seq, 0)

    def cached(self, seq: int) -> tuple | None:
        return self._cache.get(seq)

    @property
    def cached_entries(self) -> int:
        return len(self._cache)

    @property
    def cached_bytes(self) -> int:
        return self._total_bytes

    def export_entries(self) -> list:
        """JSON-friendly cache dump for checkpoint headers."""
        return [[seq, list(entry)] for seq, entry in self._cache.items()]

    def export_policy(self) -> dict:
        """The cache bounds, persisted alongside the entries so a
        recovered session keeps the exact replay window it ran with."""
        return {"size": self.cache_size, "bytes": self.cache_bytes}

    def load_entries(
        self, applied_seq: int, entries, policy: dict | None = None
    ) -> None:
        """Rebuild tracker state from a checkpoint header.

        Without this a spilled-then-recovered session would restart at
        ``applied_seq == 0`` and answer the client's next (perfectly
        contiguous) request with ``seq-gap``.  A persisted policy
        (``export_policy``) overrides the constructor bounds, and the
        watermarks are re-enforced after the load -- a header written
        under looser bounds never reinstates an over-budget cache.
        """
        self.applied_seq = int(applied_seq)
        self._cache.clear()
        self._sizes.clear()
        self._total_bytes = 0
        if isinstance(policy, dict):
            size = policy.get("size")
            max_bytes = policy.get("bytes")
            if isinstance(size, int) and size >= 1:
                self.cache_size = size
            if isinstance(max_bytes, int) and max_bytes >= 1:
                self.cache_bytes = max_bytes
        for item in entries or []:
            try:
                seq, entry = item
            except (TypeError, ValueError):
                continue
            if isinstance(seq, int) and isinstance(entry, list) and entry:
                sealed = tuple(entry)
                self._insert(seq, sealed, self.entry_bytes(sealed))
        self._trim()


def apply_events(session: "PredictorSession", events) -> dict:
    """Execute one ``apply`` request body against ``session``.

    Run by :func:`execute_op` for the live server and WAL replay alike,
    so a recovered session re-executes *exactly* the request semantics,
    including the partial-failure contract: events before a bad one
    stay applied and the error names the offending index.

    The replay itself is :meth:`PredictorSession.apply_batch`, the one
    code path that applies an event.
    """
    if not isinstance(events, list):
        raise SessionError(
            f"'events' must be a list, got {type(events).__name__}"
        )
    if len(events) > MAX_EVENTS_PER_REQUEST:
        raise SessionError(
            f"{len(events)} events in one request exceeds the "
            f"{MAX_EVENTS_PER_REQUEST}-event limit"
        )
    return {"results": session.apply_batch(events)}


def train_from_body(session: "PredictorSession", outcome) -> dict:
    """Execute one ``train`` request body (see :func:`execute_op`)."""
    if not isinstance(outcome, dict):
        raise SessionError(
            f"'outcome' must be a dict, got {type(outcome).__name__}"
        )
    fields = []
    for key in ("addr", "size", "value"):
        field_value = outcome.get(key)
        if (not isinstance(field_value, int)
                or isinstance(field_value, bool)):
            raise SessionError(
                f"train outcome needs an int {key!r}, got "
                f"{field_value!r}"
            )
        fields.append(field_value)
    return {"trained": session.train(*fields)}


def execute_op(session: "PredictorSession", op: str, body: dict) -> tuple:
    """Run one mutating op into a cacheable response entry.

    The one executor the live server and WAL replay share, so a
    replayed request regenerates the exact entry the client was -- or
    would have been -- sent.  Failures become ``("error", code,
    message)`` entries rather than raising, so the seq cache and the
    replay agree on what a retried request should see.  Effects only a
    live server has (byte accounting, dropping a closed session) are
    the caller's.
    """
    try:
        if op == "apply":
            result = apply_events(session, body.get("events"))
        elif op == "predict":
            result = {"prediction": session.predict(body.get("pc"))}
        elif op == "train":
            result = train_from_body(session, body.get("outcome"))
        elif op == "close":
            result = {"closed": session.snapshot()}
        else:  # only a WAL record can name another op
            raise SessionError(
                f"unreplayable op {op!r} in WAL", code="bad-wal-record"
            )
    except SessionError as exc:
        return ("error", exc.code, str(exc))
    except ValueError as exc:
        # Bad predictor specs from build_predictor, etc.
        return ("error", "bad-spec", str(exc))
    except Exception as exc:  # the server must never crash
        return ("error", "internal", f"{type(exc).__name__}: {exc}")
    return ("ok", result)


def spec_from_name(name: str, entries: int = 256) -> dict | None:
    """Map a CLI/wire predictor short name to a declarative spec.

    Raises :class:`SessionError` (code ``bad-spec``) for unknown names,
    with a message that lists every valid one.
    """
    if name == "none":
        return None
    if name == "composite":
        return {"kind": "composite", "entries": entries}
    if name in ("eves-8kb", "eves-32kb"):
        return {"kind": "eves", "variant": name.split("-")[1]}
    if name in ("lvp", "sap", "cvp", "cap", "lap", "svp"):
        return {"kind": "component", "name": name, "entries": entries}
    raise SessionError(
        f"unknown predictor {name!r}; valid names: "
        + ", ".join(PREDICTOR_NAMES),
        code="bad-spec",
    )


def resolve_spec(spec: dict | None) -> dict | None:
    """Normalize a JSON wire spec into a ``build_predictor`` spec.

    Wire specs are plain JSON, so a composite config arrives as a dict
    of :class:`CompositeConfig` field overrides (plus an optional
    ``entries`` shorthand for a homogeneous sizing) rather than as a
    dataclass instance.  Unknown config fields fail with a message that
    lists the valid ones.

    This is the wire boundary, so it also checks the fields
    ``build_predictor`` would otherwise trip over with a raw
    ``TypeError``: names and EVES variants must be strings, entry
    counts non-bool ints (positive, or non-negative for a composite's
    four slots, where 0 leaves the component out), and
    ``extra_components`` ``[name, entries]`` pairs.  Every failure is a
    :class:`SessionError` with code ``bad-spec``.
    """
    if spec is None or not isinstance(spec, dict):
        return spec  # build_predictor produces the canonical error
    kind = spec.get("kind")
    if kind == "component":
        if "name" in spec:
            _wire_str(spec["name"], "component 'name'")
        if "entries" in spec:
            _wire_int(spec["entries"], "component 'entries'", 1)
        return spec
    if kind == "eves":
        if "variant" in spec:
            _wire_str(spec["variant"], "eves 'variant'")
        return spec
    if kind != "composite":
        return spec
    config = spec.get("config", {})
    entries = spec.get("entries")
    if isinstance(config, CompositeConfig):
        return {"kind": "composite", "config": config}
    if not isinstance(config, dict):
        raise SessionError(
            "composite 'config' must be a dict of CompositeConfig "
            f"fields, got {type(config).__name__}",
            code="bad-spec",
        )
    valid = {f.name for f in dataclasses.fields(CompositeConfig)}
    unknown = sorted(set(config) - valid)
    if unknown:
        raise SessionError(
            f"unknown CompositeConfig fields {unknown}; valid fields: "
            + ", ".join(sorted(valid)),
            code="bad-spec",
        )
    fields = dict(config)
    for slot in ("lvp_entries", "sap_entries", "cvp_entries", "cap_entries"):
        if slot in fields:
            _wire_int(fields[slot], f"composite {slot!r}", 0)
    extra = fields.get("extra_components")
    if extra is not None:
        # JSON has no tuples; accept [[name, entries], ...].
        fields["extra_components"] = _extra_pairs(extra)
    try:
        built = CompositeConfig(**fields)
    except TypeError as exc:
        raise SessionError(f"bad composite config: {exc}", code="bad-spec")
    if entries is not None:
        entries = _wire_int(entries, "composite 'entries'", 1)
        built = built.homogeneous(entries)
    return {"kind": "composite", "config": built}


def _wire_int(value, what: str, minimum: int) -> int:
    """``value`` if it is exactly an int (so not a bool) >= ``minimum``."""
    if type(value) is not int or value < minimum:
        sign = "positive" if minimum > 0 else "non-negative"
        raise SessionError(
            f"{what} must be a {sign} int, got {value!r}", code="bad-spec"
        )
    return value


def _wire_str(value, what: str) -> str:
    """``value`` if it is a string."""
    if not isinstance(value, str):
        raise SessionError(
            f"{what} must be a string, got {value!r}", code="bad-spec"
        )
    return value


def _extra_pairs(extra) -> tuple:
    """A wire ``extra_components`` as ``((name, entries), ...)``."""
    if not isinstance(extra, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in extra
    ):
        raise SessionError(
            "composite 'extra_components' must be a list of [name, "
            f"entries] pairs, got {extra!r}",
            code="bad-spec",
        )
    return tuple(
        (_wire_str(name, "extra component name"),
         _wire_int(entries, "extra component entries", 1))
        for name, entries in extra
    )


def _field(event: dict, key: str, kind: str) -> int:
    """A required non-negative int field of one instruction event."""
    value = event.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SessionError(
            f"{kind} event needs a non-negative int {key!r}, got "
            f"{value!r}"
        )
    return value


def _memory_fields(event: dict, kind: str) -> tuple[int, int, int, int]:
    """``(pc, addr, size, value)`` of a load or store event.

    The slow half of :meth:`PredictorSession.apply_batch`'s field
    checks: it accepts what the exact-type fast checks are stricter
    about (int subclasses) and otherwise raises the error for the
    first bad field.
    """
    pc = _field(event, "pc", kind)
    addr = _field(event, "addr", kind)
    size = _field(event, "size", kind)
    if size not in _VALID_SIZES:
        raise SessionError(
            f"{kind} size must be one of {_VALID_SIZES}, got {size!r}"
        )
    value = event.get("value")
    if not isinstance(value, int) or isinstance(value, bool):
        raise SessionError(
            f"{kind} event needs an int 'value', got {value!r}"
        )
    return pc, addr, size, value


@functools.cache
def _names_by_mask(names: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The sorted slot names of every slot mask over ``names``."""
    return tuple(
        tuple(slot_names(mask, names)) for mask in range(1 << len(names))
    )


class PredictorSession:
    """One client's predictor, histories, memory, and counters."""

    __slots__ = (
        "session_id", "predictor", "histories", "memory", "last_used",
        "events", "instructions", "loads", "predicted_loads",
        "correct_predictions", "_pending", "tracker", "durable",
        "accounted_bytes",
    )

    #: Counter slots checkpoints persist and :meth:`restore` reinstates.
    COUNTER_FIELDS = (
        "events", "instructions", "loads", "predicted_loads",
        "correct_predictions",
    )

    def __init__(
        self,
        spec: dict | None,
        session_id: str = "",
        initial_memory: MemoryImage | None = None,
    ) -> None:
        from repro.harness.runner import build_predictor

        self.session_id = session_id
        self.predictor = build_predictor(resolve_spec(spec)) or NoPredictor()
        self.histories = HistorySet()
        self.memory = (
            initial_memory.copy() if initial_memory is not None
            else MemoryImage()
        )
        self.last_used = 0
        self.events = 0
        self.instructions = 0
        self.loads = 0
        self.predicted_loads = 0
        self.correct_predictions = 0
        #: predict() decisions not yet consumed by train(), oldest first.
        self._pending: deque = deque()
        #: Exactly-once bookkeeping, created on the first seq-carrying
        #: request (always present on durable sessions).
        self.tracker: SeqTracker | None = None
        self.durable = False
        #: Bytes last charged against the manager's budget (incremental
        #: accounting; see SessionManager).
        self.accounted_bytes = 0

    # ------------------------------------------------------------------
    # Low-level verbs: the predictor API, decoupled from any trace
    # ------------------------------------------------------------------

    def predict(self, pc: int) -> dict:
        """Probe the predictor for the load at ``pc``.

        The decision is queued until the matching :meth:`train` arrives
        (training is deferred past prediction on a real fetch path).
        Histories are *not* advanced -- the event stream drives those.
        """
        if not isinstance(pc, int) or isinstance(pc, bool) or pc < 0:
            raise SessionError(f"pc must be a non-negative int, got {pc!r}")
        decision = probe_load(self.predictor, self.histories, pc)
        self._pending.append(decision)
        return self._record(decision, None)

    def train(self, addr: int, size: int, value: int) -> dict:
        """Resolve the oldest outstanding prediction with its outcome.

        Address predictions are judged against the session's memory as
        it is now, at train time.
        """
        if not self._pending:
            raise SessionError("train without a pending predict")
        if size not in _VALID_SIZES:
            raise SessionError(
                f"train size must be one of {_VALID_SIZES}, got {size!r}"
            )
        decision = self._pending.popleft()
        return self._resolve(decision, addr, size, value)

    @property
    def pending(self) -> int:
        """Outstanding predict() calls not yet train()ed."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Streaming form: replay instruction events (the loadgen path)
    # ------------------------------------------------------------------

    def apply_batch(self, events: list) -> list:
        """Apply one ``apply`` body's events; one result per event.

        Event vocabulary (``k`` selects the kind):

        * ``{"k": "b", "pc", "taken", "cond"}`` -- a branch;
        * ``{"k": "s", "pc", "addr", "size", "value"}`` -- a store;
        * ``{"k": "l", "pc", "addr", "size", "value", "pred"}`` -- a
          load (``pred`` false = not value-prediction eligible);
        * ``{"k": "t", "n": N}`` -- N instructions of no interest to
          the predictor (ALU work), advancing the epoch clock.

        A predictable load's result is its decision record; every
        other event's is ``None``.  Branch/store/load events each count
        one instruction and loads run the functional harness's per-load
        step, so a trace replayed as events is instruction-for-instruction
        identical to :func:`repro.harness.functional.run_functional` on
        every composite it evaluates.

        Methods are bound once per batch, and the per-event epoch ticks
        are accumulated and flushed in a single ``tick_instructions``
        call right before the next prediction consults the predictor.
        Epoch boundaries are only observable at prediction time -- the
        same deferral the vectorized functional backend relies on --
        and each event's own tick lands *after* the event, so a load's
        flush covers strictly prior instructions.

        Field checks are exact ``type`` tests (which double as bool
        rejections); a field they reject goes to :func:`_field` /
        :func:`_memory_fields`, which accept int subclasses and raise
        the error message otherwise.  On a bad event the earlier events
        stay applied, the error is prefixed ``event N:``, and the
        offending event -- if it is a dict -- counts in ``events``.
        """
        histories = self.histories
        push_branch = histories.push_branch
        push_unconditional = histories.push_unconditional
        push_memory = histories.push_memory
        mem_write = self.memory.write
        predictor = self.predictor
        predict = predictor.predict
        tick = predictor.tick_instructions
        resolve = self._resolve
        sizes = _VALID_SIZES
        results: list = []
        append = results.append
        pending_ticks = 0  # epoch ticks owed but not yet applied
        applied = 0        # events to add to the counters
        instructions = 0   # their instruction count
        index = 0
        try:
            for index, event in enumerate(events):
                if type(event) is not dict and not isinstance(event, dict):
                    raise SessionError(
                        f"event must be a dict, got {type(event).__name__}"
                    )
                applied += 1
                kind = event.get("k")
                if kind == "l":
                    pc = event.get("pc")
                    addr = event.get("addr")
                    size = event.get("size")
                    value = event.get("value")
                    if not (type(pc) is int and pc >= 0
                            and type(addr) is int and addr >= 0
                            and type(size) is int and size in sizes
                            and type(value) is int):
                        pc, addr, size, value = _memory_fields(event, "load")
                    if event.get("pred", True):
                        if pending_ticks:
                            tick(pending_ticks)
                            pending_ticks = 0
                        append(resolve(
                            predict(pc, -1, histories.direction,
                                    histories.path, histories.load_path, 0),
                            addr, size, value,
                        ))
                    else:
                        append(None)
                    push_memory(pc)
                elif kind == "b":
                    pc = event.get("pc")
                    if type(pc) is not int or pc < 0:
                        pc = _field(event, "pc", "branch")
                    if event.get("cond", True):
                        push_branch(pc, bool(event.get("taken")))
                    else:
                        push_unconditional(pc)
                    append(None)
                elif kind == "s":
                    pc = event.get("pc")
                    addr = event.get("addr")
                    size = event.get("size")
                    value = event.get("value")
                    if not (type(pc) is int and pc >= 0
                            and type(addr) is int and addr >= 0
                            and type(size) is int and size in sizes
                            and type(value) is int):
                        pc, addr, size, value = _memory_fields(event, "store")
                    mem_write(addr, size, value)
                    push_memory(pc)
                    append(None)
                elif kind == "t":
                    count = event.get("n")
                    if type(count) is not int or count < 0:
                        count = _field(event, "n", "tick")
                    append(None)
                    pending_ticks += count
                    instructions += count
                    continue
                else:
                    raise SessionError(f"unknown event kind {kind!r}")
                pending_ticks += 1
                instructions += 1
        except SessionError as exc:
            raise SessionError(
                f"event {index}: {exc}", code=exc.code
            ) from exc
        finally:
            if pending_ticks:
                tick(pending_ticks)
            self.events += applied
            self.instructions += instructions
        return results

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------

    def _resolve(
        self, decision, addr: int, size: int, value: int
    ) -> dict:
        """Judge and train one load's decision, update counters, and
        return its record."""
        self.loads += 1
        verdicts = judge_and_train(
            self.predictor, decision, self.memory, addr, size, value
        )
        correct = None
        chosen = decision[CHOSEN]
        if chosen >= 0:
            self.predicted_loads += 1
            correct = bool(verdicts >> chosen & 1)
            if correct:
                self.correct_predictions += 1
        return self._record(decision, correct)

    def _record(self, decision, correct: bool | None) -> dict:
        """JSON-friendly, deterministic image of one decision: slots
        rendered by name, from the predictor's slot tuple."""
        predictor = self.predictor
        names = predictor.slot_names
        sorted_names = _names_by_mask(names)
        chosen = decision[CHOSEN]
        predicted = chosen >= 0
        address = predicted and predictor.address_slots >> chosen & 1
        record = {
            "predicted": predicted,
            "component": names[chosen] if predicted else None,
            "kind": (
                ("address" if address else "value") if predicted else None
            ),
            "confident": list(sorted_names[decision[CONFIDENT]]),
            "squashed": list(sorted_names[decision[SQUASHED]]),
        }
        if predicted:
            prediction = decision[PREDICTED + chosen]
            if address:
                record["addr"] = address_of(prediction)
                record["size"] = size_of(prediction)
            else:
                record["value"] = prediction
        if correct is not None:
            record["correct"] = correct
        return record

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Rough resident footprint, for the manager's byte budget."""
        # Table state is modelled exactly (storage_bits); the memory
        # image is a python dict of 8-byte words (~100 B/entry resident,
        # but 16 B/entry is the right *relative* weight between
        # sessions); the constant covers histories and bookkeeping.
        return self.predictor.storage_bits() // 8 + len(self.memory) * 16 + 2048

    @property
    def accuracy(self) -> float:
        # No predictions made: report 0.0, not a perfect 1.0 -- a
        # session that never predicted has demonstrated nothing, and a
        # vacuous 1.0 poisons fleet-level aggregation (it ranks an idle
        # session above every working one).  Matches
        # FunctionalResult.accuracy.
        if not self.predicted_loads:
            return 0.0
        return self.correct_predictions / self.predicted_loads

    @property
    def coverage(self) -> float:
        return self.predicted_loads / self.loads if self.loads else 0.0

    def snapshot(self) -> dict:
        """Counter snapshot for the ``stats`` RPC and ``close``."""
        return {
            "session": self.session_id,
            "events": self.events,
            "instructions": self.instructions,
            "loads": self.loads,
            "predicted_loads": self.predicted_loads,
            "correct_predictions": self.correct_predictions,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "pending": self.pending,
            "estimated_bytes": self.estimated_bytes(),
        }

    # ------------------------------------------------------------------
    # Checkpoint support (the durability layer's view of a session)
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """The full mutable state a checkpoint must persist.

        The predictor's tables, the raw :class:`HistorySet` registers
        its components hash, the memory image and the outstanding
        predict decisions together fix every later response, so a
        restored session continues bit-exactly (proven in
        ``tests/test_durability.py``).  The predictor and the histories
        share no objects: components hash the raw registers a probe
        carries.
        """
        return {
            "predictor": self.predictor,
            "histories": self.histories,
            "memory": self.memory,
            "pending": list(self._pending),
        }

    def counters(self) -> dict:
        """JSON-friendly counter values for a checkpoint header."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    @classmethod
    def restore(
        cls, session_id: str, state: dict, counters: dict
    ) -> "PredictorSession":
        """Rebuild a session from :meth:`capture_state` output.

        Bypasses ``__init__`` entirely -- the predictor is *not*
        rebuilt from a spec, it is the unpickled object graph.
        """
        session = cls.__new__(cls)
        session.session_id = session_id
        session.predictor = state["predictor"]
        session.histories = state["histories"]
        session.memory = state["memory"]
        session._pending = deque(state["pending"])
        session.last_used = 0
        for name in cls.COUNTER_FIELDS:
            setattr(session, name, int(counters.get(name, 0)))
        session.tracker = None
        session.durable = False
        session.accounted_bytes = 0
        return session


def _resolve_initial_memory(workload: dict) -> MemoryImage | None:
    """Resolve an ``open`` request's workload identity to its memory.

    Sessions replaying a stored trace need the trace's initial memory
    image for address-prediction validation; the client names the
    ``(workload, length, seed)`` identity and the server resolves it
    through the normal trace path (in-process memo, then the on-disk
    trace store, then generation) -- a prewarmed store makes this a
    cheap column load shared across sessions.
    """
    from repro.workloads.generator import SPECIAL_WORKLOADS, generate_trace
    from repro.workloads.profiles import ALL_WORKLOADS

    if not isinstance(workload, dict):
        raise SessionError(
            f"'workload' must be a dict, got {type(workload).__name__}",
            code="bad-spec",
        )
    name = workload.get("name")
    valid = tuple(ALL_WORKLOADS) + tuple(SPECIAL_WORKLOADS)
    if name not in valid:
        raise SessionError(
            f"unknown workload {name!r}; valid names: " + ", ".join(valid),
            code="unknown-workload",
        )
    length = workload.get("length", 50_000)
    if (not isinstance(length, int) or isinstance(length, bool)
            or not 100 <= length <= MAX_WORKLOAD_LENGTH):
        raise SessionError(
            f"workload length must be an int in "
            f"[100, {MAX_WORKLOAD_LENGTH}], got {length!r}",
            code="bad-spec",
        )
    seed = workload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SessionError(
            f"workload seed must be a non-negative int, got {seed!r}",
            code="bad-spec",
        )
    return generate_trace(name, length, seed).initial_memory


class SessionManager:
    """Sessions keyed by id, with LRU eviction under resource budgets.

    With a :class:`~repro.serve.durability.DurabilityManager` attached,
    durable sessions are write-ahead logged, evicted ones *spill*
    (flush + checkpoint) instead of losing state, and lookups of a
    spilled id transparently recover it from disk.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        max_total_bytes: int | None = None,
        durability=None,
    ) -> None:
        self.max_sessions = max(1, max_sessions)
        self.max_total_bytes = max_total_bytes
        self.durability = durability
        self._sessions: OrderedDict[str, PredictorSession] = OrderedDict()
        self._clock = 0
        self._total_bytes = 0
        self.opened = 0
        self.closed = 0
        self.evictions = 0
        self.released = 0
        #: Session ids quiesced for migration: their durable state is
        #: being (or has been) moved off this shard, so lookups must
        #: NOT transparently re-recover them from disk -- that would
        #: fork the session across shards.  Cleared by :meth:`adopt`.
        self._frozen: set[str] = set()

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def open(
        self,
        session_id: str,
        spec: dict | None,
        workload: dict | None = None,
    ) -> PredictorSession:
        """Create a plain in-memory session (evicting if over budget)."""
        self._check_id(session_id)
        if session_id in self._sessions:
            raise SessionError(
                f"session {session_id!r} already exists",
                code="session-exists",
            )
        memory = (
            _resolve_initial_memory(workload) if workload is not None
            else None
        )
        session = PredictorSession(
            spec, session_id=session_id, initial_memory=memory
        )
        self._install(session)
        return session

    def open_durable(
        self,
        session_id: str,
        spec: dict | None,
        workload: dict | None = None,
    ) -> tuple[PredictorSession, bool]:
        """Open (or resume) a durable session; returns ``(session, resumed)``.

        A durable ``open`` is idempotent: if the session already exists
        -- live in memory, spilled to disk, or left behind by a crashed
        server -- and the request's spec matches, the caller reattaches
        and gets ``resumed=True`` plus the session's current applied
        seq, which is how a reconnecting client learns where to resume.
        A mismatched spec is refused (``spec-mismatch``) rather than
        silently serving different tables.
        """
        if self.durability is None:
            raise SessionError(
                "this server has no --data-dir; durable sessions are "
                "disabled",
                code="durability-disabled",
            )
        self._check_id(session_id)
        self._check_not_frozen(session_id)
        session = self._sessions.get(session_id)
        if session is None and self.durability.exists(session_id):
            session = self._recover(session_id)
        if session is not None:
            if not session.durable:
                raise SessionError(
                    f"session {session_id!r} already exists and is not "
                    "durable",
                    code="session-exists",
                )
            if not self.durability.spec_matches(session_id, spec):
                raise SessionError(
                    f"durable session {session_id!r} exists with a "
                    "different predictor spec",
                    code="spec-mismatch",
                )
            self._touch(session)
            return session, True
        self.durability.check_not_closed(session_id)
        memory = (
            _resolve_initial_memory(workload) if workload is not None
            else None
        )
        session = PredictorSession(
            spec, session_id=session_id, initial_memory=memory
        )
        session.durable = True
        session.tracker = SeqTracker(
            self.durability.cache_size, self.durability.cache_bytes
        )
        # The open record hits the WAL before the caller ever sees the
        # session -- a crash from here on always recovers it.
        self.durability.create(session_id, spec, workload, session.tracker)
        session.tracker.record(1, ("ok", {"session": session_id}))
        self._install(session)
        return session, False

    def get(self, session_id) -> PredictorSession:
        """Look up (and LRU-touch) a session, recovering spilled ones."""
        if isinstance(session_id, str):
            self._check_not_frozen(session_id)
        session = (
            self._sessions.get(session_id)
            if isinstance(session_id, str) else None
        )
        if session is None and self.durability is not None \
                and isinstance(session_id, str) \
                and self.durability.exists(session_id):
            session = self._recover(session_id)
        if session is None:
            if self.durability is not None and isinstance(session_id, str):
                self.durability.check_not_closed(session_id)
            raise SessionError(
                f"unknown session {session_id!r}", code="unknown-session"
            )
        self._touch(session)
        return session

    def close(self, session_id) -> dict:
        """Remove a session, returning its final counter snapshot."""
        session = (
            self._sessions.get(session_id)
            if isinstance(session_id, str) else None
        )
        if session is None:
            raise SessionError(
                f"unknown session {session_id!r}", code="unknown-session"
            )
        snapshot = session.snapshot()
        self._remove(session)
        self.closed += 1
        return snapshot

    def durable_handle(self, session_id: str):
        """The live WAL handle for ``session_id`` (None if not durable)."""
        if self.durability is None:
            return None
        return self.durability.handle(session_id)

    def recover_all(self) -> dict:
        """Recover every durable session found on disk (server startup).

        Sessions beyond the LRU budget immediately spill back -- the
        recovery pass bounds *lost* state, not resident state.  Returns
        the durability layer's recovery stats.
        """
        if self.durability is None:
            return {}
        for session_id in self.durability.scan_ids():
            if session_id not in self._sessions:
                try:
                    self._recover(session_id)
                except SessionError:
                    continue
        return self.durability.stats.as_dict()

    def install_replayed(
        self, replay, segment: int, size: int
    ) -> PredictorSession:
        """Serve a replica replayed elsewhere (standby promotion).

        The same install step crash recovery ends in
        (:meth:`~repro.serve.durability.DurabilityManager.install`):
        raises ``session-closed`` after finishing a replayed close.
        """
        return self._admit(self.durability.install(replay, segment, size))

    def touch_bytes(self, session: PredictorSession) -> None:
        """Re-check budgets after a session grew (e.g. store events)."""
        self._account(session)
        self._enforce_limits(keep=session.session_id)

    # -- migration (the router's quiesce/handoff protocol) --------------

    def release(self, session_id) -> dict:
        """Quiesce one durable session for migration off this shard.

        Checkpoints + fsyncs it to disk (the spill path, so every
        acknowledged byte is durable), drops it from memory, and
        *freezes* the id: until :meth:`adopt`, any request for it gets
        ``session-migrating`` instead of a transparent re-recovery --
        the files are about to move and a late request must not fork
        the session into two live copies.
        """
        if self.durability is None:
            raise SessionError(
                "this server has no --data-dir; sessions cannot be "
                "released for migration",
                code="durability-disabled",
            )
        self._check_id(session_id)
        session = self._sessions.get(session_id)
        if session is None and not self.durability.exists(session_id):
            raise SessionError(
                f"unknown session {session_id!r}", code="unknown-session"
            )
        applied_seq = None
        if session is not None:
            if not session.durable:
                raise SessionError(
                    f"session {session_id!r} is not durable and cannot "
                    "be migrated",
                    code="not-durable",
                )
            applied_seq = session.tracker.applied_seq
            self._remove(session, spill=True)
        self._frozen.add(session_id)
        self.released += 1
        return {
            "released": session_id,
            "applied_seq": applied_seq,
            "was_resident": session is not None,
        }

    def adopt(self, session_id) -> dict:
        """Accept a migrated-in session: unfreeze and recover it now.

        Also the undo for :meth:`release` when a migration aborts --
        adopting on the source shard simply recovers the spilled state
        in place.
        """
        if self.durability is None:
            raise SessionError(
                "this server has no --data-dir; sessions cannot be "
                "adopted",
                code="durability-disabled",
            )
        self._check_id(session_id)
        self._frozen.discard(session_id)
        session = self.get(session_id)
        return {
            "adopted": session_id,
            "applied_seq": (
                session.tracker.applied_seq
                if session.tracker is not None else None
            ),
        }

    def _check_not_frozen(self, session_id: str) -> None:
        if session_id in self._frozen:
            raise SessionError(
                f"session {session_id!r} is being migrated off this "
                "shard; retry",
                code="session-migrating",
            )

    # -- internals ------------------------------------------------------

    @staticmethod
    def _check_id(session_id) -> None:
        if not isinstance(session_id, str) or not session_id:
            raise SessionError(
                f"session id must be a non-empty string, got {session_id!r}",
                code="bad-spec",
            )

    def _install(self, session: PredictorSession) -> None:
        self.opened += 1
        self._admit(session)

    def _recover(self, session_id: str) -> PredictorSession:
        """Rebuild a durable session from its WAL + checkpoint."""
        return self._admit(self.durability.recover(session_id))

    def _admit(self, session: PredictorSession) -> PredictorSession:
        """Make ``session`` resident (LRU-touched, within budget)."""
        self._sessions[session.session_id] = session
        self._account(session)
        self._touch(session)
        self._enforce_limits(keep=session.session_id)
        return session

    def _account(self, session: PredictorSession) -> None:
        estimated = session.estimated_bytes()
        self._total_bytes += estimated - session.accounted_bytes
        session.accounted_bytes = estimated

    def _remove(self, session: PredictorSession, spill: bool = False) -> None:
        """The one removal path: close, eviction, and spill all use it.

        Releases the session's tracked bytes and -- for durable
        sessions -- flushes the WAL (plus a checkpoint when spilling)
        so no acknowledged state is lost with the in-memory copy.
        """
        self._sessions.pop(session.session_id, None)
        self._total_bytes -= session.accounted_bytes
        session.accounted_bytes = 0
        if session.durable and self.durability is not None:
            if spill:
                self.durability.spill(session)
            else:
                self.durability.release(session.session_id)

    def _touch(self, session: PredictorSession) -> None:
        self._clock += 1
        session.last_used = self._clock
        self._sessions.move_to_end(session.session_id)

    def _enforce_limits(self, keep: str) -> None:
        while len(self._sessions) > self.max_sessions:
            if not self._evict_one(keep):
                break
        if self.max_total_bytes is not None:
            while (len(self._sessions) > 1
                   and self.total_bytes() > self.max_total_bytes):
                if not self._evict_one(keep):
                    break

    def _evict_one(self, keep: str) -> bool:
        """Evict the least-recently-used session other than ``keep``.

        Durable sessions spill (WAL flush + checkpoint) and recover on
        their next use; in-memory sessions are discarded.
        """
        for session_id in self._sessions:
            if session_id != keep:
                self._remove(self._sessions[session_id], spill=True)
                self.evictions += 1
                return True
        return False

    def total_bytes(self) -> int:
        return max(0, self._total_bytes)

    def snapshot(self) -> dict:
        """Manager-level counters for the ``stats`` RPC."""
        sessions = list(self._sessions.values())
        loads = sum(s.loads for s in sessions)
        predicted = sum(s.predicted_loads for s in sessions)
        correct = sum(s.correct_predictions for s in sessions)
        return {
            "active": len(sessions),
            "durable_active": sum(1 for s in sessions if s.durable),
            "opened": self.opened,
            "closed": self.closed,
            "evictions": self.evictions,
            "released": self.released,
            "frozen": len(self._frozen),
            "max_sessions": self.max_sessions,
            "total_bytes": self.total_bytes(),
            "loads": loads,
            "predicted_loads": predicted,
            "correct_predictions": correct,
            "accuracy": (correct / predicted) if predicted else 1.0,
        }


__all__ = [
    "MAX_EVENTS_PER_REQUEST",
    "MAX_WORKLOAD_LENGTH",
    "PREDICTOR_NAMES",
    "SEQ_CACHE_BYTES",
    "SEQ_CACHE_SIZE",
    "PredictorSession",
    "SeqTracker",
    "SessionError",
    "SessionManager",
    "apply_events",
    "execute_op",
    "resolve_spec",
    "spec_from_name",
    "train_from_body",
]
