"""Fault-tolerant execution of sweep-style experiments.

Every figure/table of the paper is a sweep over independent
(workload, predictor-config) **cells**.  This module runs such sweeps
through a supervisor that survives the failure modes long campaigns
actually hit:

* a cell crashes -> bounded **retry** with exponential backoff and
  deterministic jitter (transient failures only; deterministic
  exceptions fail fast);
* a cell hangs -> a per-cell wall-clock **timeout**.  With worker
  subprocesses (``workers >= 1``, via
  ``concurrent.futures.ProcessPoolExecutor``) an overdue worker is
  reaped (killed) and the pool rebuilt; in-process execution
  (``workers == 0``) arms a *cooperative* deadline that the timing
  model polls via its interrupt hook
  (:class:`repro.pipeline.core.SimulationInterrupted`);
* the whole campaign is killed -> with ``REPRO_RESULTS_DB_DIR`` set,
  every finished cell was already written to the content-addressed
  results database (:mod:`repro.harness.resultsdb`), so rerunning the
  same sweep serves those cells as database hits, computes only the
  rest, and reproduces the uninterrupted result exactly (fresh results
  are JSON round-tripped before aggregation so served and recomputed
  values are byte-identical);
* some cells fail permanently -> the sweep still returns every
  successful cell plus a structured failure report instead of raising.

The database is the one record of finished cells: the supervisor
consults it before dispatching each cell and writes fresh results back
on success, so identical cells are reused across campaigns and
processes, and a stale entry (recorded under other code or semantics
versions) simply misses.

Fault injection (for tests and drills) is driven by the
``REPRO_FAULT_PLAN`` environment variable -- see
:func:`parse_fault_plan`.
"""

from __future__ import annotations

import fnmatch
import hashlib
import importlib
import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.harness.resultsdb import ResultsDb, active_db

#: Environment variable holding the fault plan (see :func:`parse_fault_plan`).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Hard hang duration (seconds) for the ``hang`` fault action.
_HANG_SECONDS = 3600.0


class TransientCellError(RuntimeError):
    """A retryable cell failure (infrastructure, not logic)."""


class CellTimeout(TransientCellError):
    """A cell exceeded its wall-clock budget."""


class FaultInjected(TransientCellError):
    """A failure injected by the ``REPRO_FAULT_PLAN`` fault plan."""


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault plan.

    ``pattern`` is an ``fnmatch`` glob over cell ids; ``action`` is one
    of ``fail`` (raise :class:`FaultInjected`), ``hang`` (sleep far past
    any sane timeout), ``crash`` (``os._exit`` -- kills the worker, or
    the whole campaign when inline).  The rule applies while the cell's
    attempt number is below ``count`` -- ``count=1`` is "fail once,
    then succeed", the canonical transient fault.
    """

    pattern: str
    action: str
    count: int = 1


_ACTIONS = ("fail", "hang", "crash")

# True while the supervisor is executing cells in-process; lets the
# ``hang`` action honor the cooperative deadline instead of deadlocking
# the campaign (a subprocess hang is reaped by the supervisor instead).
_INLINE = False

# Cooperative deadline (time.monotonic() timestamp) for the cell
# currently executing in *this* process; see :func:`cooperative_deadline`.
_DEADLINE: float | None = None


def parse_fault_plan(text: str | None) -> tuple[FaultRule, ...]:
    """Parse a fault plan like ``"fig5/*:fail;table6/512/*:hang:2"``.

    Clauses are ``pattern:action[:count]`` separated by ``;``.  Unknown
    actions or malformed counts raise ``ValueError`` -- a fault drill
    with a typo'd plan should fail loudly, not silently run clean.
    """
    rules = []
    for clause in (text or "").split(";"):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.rsplit(":", 2)
        if len(parts) >= 2 and parts[-1].isdigit() and parts[-2] in _ACTIONS:
            pattern = clause[: -(len(parts[-2]) + len(parts[-1]) + 2)]
            action, count = parts[-2], int(parts[-1])
        elif len(parts) >= 2 and parts[-1] in _ACTIONS:
            pattern = clause[: -(len(parts[-1]) + 1)]
            action, count = parts[-1], 1
        else:
            raise ValueError(
                f"bad fault clause {clause!r}; expected pattern:action[:count] "
                f"with action in {_ACTIONS}"
            )
        rules.append(FaultRule(pattern=pattern, action=action, count=count))
    return tuple(rules)


def _plan_from_env() -> tuple[FaultRule, ...]:
    return parse_fault_plan(os.environ.get(FAULT_PLAN_ENV))


def _matching_rule(
    rules: Sequence[FaultRule], cell_id: str, attempt: int, action: str
) -> FaultRule | None:
    for rule in rules:
        if (
            rule.action == action
            and attempt < rule.count
            and fnmatch.fnmatchcase(cell_id, rule.pattern)
        ):
            return rule
    return None


def _maybe_inject(cell_id: str, attempt: int) -> None:
    """Apply any matching execution-side fault before running the cell."""
    rules = _plan_from_env()
    if _matching_rule(rules, cell_id, attempt, "crash"):
        os._exit(70)
    if _matching_rule(rules, cell_id, attempt, "fail"):
        raise FaultInjected(
            f"injected failure for cell {cell_id!r} (attempt {attempt})"
        )
    if _matching_rule(rules, cell_id, attempt, "hang"):
        end = time.monotonic() + _HANG_SECONDS
        while time.monotonic() < end:
            time.sleep(0.02)
            deadline = _DEADLINE
            if _INLINE and deadline is not None and time.monotonic() >= deadline:
                raise CellTimeout(
                    f"cell {cell_id!r} hit its cooperative deadline while "
                    "hanging (injected)"
                )


def cooperative_deadline() -> float | None:
    """The running cell's wall-clock deadline (``time.monotonic()``).

    Cell functions that can take long should poll this (directly or via
    the pipeline's interrupt hook) and raise :class:`CellTimeout` when
    exceeded; it is how in-process (``workers == 0``) execution enforces
    ``timeout`` without subprocesses.  ``None`` means no deadline.
    """
    return _DEADLINE


# ----------------------------------------------------------------------
# Cells and policies
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep.

    ``fn`` is a ``"package.module:function"`` reference resolved inside
    the worker (so cells stay picklable); the function receives
    ``spec`` as its single argument and must return a JSON-serializable
    value.  ``id`` must be unique within the sweep and stable across
    runs -- it keys the report, fault plans and retry jitter.  The
    results database keys on ``fn`` and ``spec`` alone.
    """

    id: str
    fn: str
    spec: Any = None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Only *transient* failures (:class:`TransientCellError`, timeouts,
    dead workers) are retried; deterministic exceptions from the cell
    function fail immediately unless ``retry_all`` is set.  Jitter is
    derived from the (cell id, attempt) pair, not a live RNG, so a
    rerun campaign backs off identically to the original.
    """

    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    retry_all: bool = False

    def delay(self, cell_id: str, attempt: int) -> float:
        """Backoff before retrying ``cell_id`` after failed ``attempt``."""
        digest = hashlib.sha256(f"{cell_id}/{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 2**32
        return self.backoff * self.backoff_factor**attempt * (1.0 + self.jitter * unit)

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` counts as transient (and is thus retryable)."""
        if isinstance(exc, (TransientCellError, BrokenProcessPool)):
            return True
        return self.retry_all and isinstance(exc, Exception)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep executes: workers, timeout, retries, progress.

    ``workers == 0`` (the default) runs cells in-process -- same
    determinism and per-process caches as the historical inline loops,
    with *cooperative* timeouts only.  ``workers >= 1`` isolates cells
    in subprocesses where hangs and crashes cannot take down the
    campaign.
    """

    workers: int = 0
    timeout: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    progress: Callable[["CellOutcome", int, int], None] | None = None


@dataclass
class CellOutcome:
    """Terminal state of one cell after the sweep finishes."""

    id: str
    status: str  #: ``ok``, ``failed``, or ``cached`` (results DB)
    value: Any = None
    attempts: int = 0
    elapsed: float = 0.0
    error: str | None = None
    source: str = "fresh"  #: ``fresh`` or ``db``


@dataclass
class DbUsage:
    """Results-database effectiveness counters for one sweep (or totals).

    ``lookups``/``hits`` count database consultations (one per cell);
    ``computed`` counts cells that actually ran; ``stored`` counts
    successful write-backs.
    """

    lookups: int = 0
    hits: int = 0
    computed: int = 0
    stored: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of database lookups that hit (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def add(self, other: "DbUsage") -> None:
        """Accumulate ``other``'s counters into this instance."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.computed += other.computed
        self.stored += other.stored

    def as_dict(self) -> dict:
        """JSON-friendly snapshot including the derived hit rate."""
        return {
            "lookups": self.lookups, "hits": self.hits,
            "computed": self.computed, "stored": self.stored, "hit_rate": round(self.hit_rate, 4),
        }


# Process-wide accumulation of every sweep's database usage, for the
# CLI's end-of-command summary line (a command may run many sweeps).
_DB_TOTALS = DbUsage()


def db_usage_totals() -> DbUsage:
    """Process-wide results-database usage accumulated across sweeps."""
    return _DB_TOTALS


def reset_db_usage_totals() -> None:
    """Zero the process-wide usage totals (tests, ``clear_caches``)."""
    global _DB_TOTALS
    _DB_TOTALS = DbUsage()


@dataclass
class SweepReport:
    """Everything a sweep produced: per-cell outcomes plus failure roll-up."""

    outcomes: dict[str, CellOutcome]
    db_usage: DbUsage | None = None  #: set when a results DB was active

    def value(self, cell_id: str, default: Any = None) -> Any:
        """The cell's value, or ``default`` if it failed or is unknown."""
        outcome = self.outcomes.get(cell_id)
        if outcome is None or outcome.status == "failed":
            return default
        return outcome.value

    def values(self) -> dict[str, Any]:
        """Values of all successful cells, keyed by cell id."""
        return {
            cid: o.value
            for cid, o in self.outcomes.items()
            if o.status != "failed"
        }

    @property
    def failures(self) -> list[CellOutcome]:
        """Outcomes of terminally failed cells, in sweep order."""
        return [o for o in self.outcomes.values() if o.status == "failed"]

    @property
    def ok(self) -> bool:
        """True when every cell completed (fresh or from the results DB)."""
        return not self.failures

    def failure_summary(self) -> dict:
        """A JSON-friendly report of what failed and how."""
        return {
            "failed_cells": len(self.failures),
            "total_cells": len(self.outcomes),
            "cells": [
                {"id": o.id, "error": o.error, "attempts": o.attempts}
                for o in self.failures
            ],
        }


# ----------------------------------------------------------------------
# Ambient policy (set by the CLI, consulted by experiment sweeps)
# ----------------------------------------------------------------------

_POLICY = ExecutionPolicy()


def current_policy() -> ExecutionPolicy:
    """The ambient :class:`ExecutionPolicy` experiment sweeps run under."""
    return _POLICY


@contextmanager
def use_policy(policy: ExecutionPolicy) -> Iterator[ExecutionPolicy]:
    """Temporarily install ``policy`` as the ambient execution policy."""
    global _POLICY
    previous = _POLICY
    _POLICY = policy
    try:
        yield policy
    finally:
        _POLICY = previous


def sweep(cells: Sequence[Cell]) -> SweepReport:
    """Run ``cells`` under the ambient policy (what experiments call)."""
    return run_cells(cells, current_policy())


def attach_failures(payload: dict, report: SweepReport) -> dict:
    """Graft a sweep's failure summary onto an experiment result dict."""
    if not report.ok:
        payload["failures"] = report.failure_summary()
    return payload


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _resolve(fn_path: str) -> Callable[[Any], Any]:
    module_name, sep, qualname = fn_path.partition(":")
    if not sep or not qualname:
        raise ValueError(
            f"cell fn {fn_path!r} must look like 'package.module:function'"
        )
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _execute_cell(
    fn_path: str, spec: Any, cell_id: str, attempt: int, deadline: float | None
) -> Any:
    """Run one cell attempt (entry point both inline and in workers)."""
    global _DEADLINE
    _DEADLINE = deadline
    try:
        _maybe_inject(cell_id, attempt)
        return _resolve(fn_path)(spec)
    finally:
        _DEADLINE = None


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

def run_cells(
    cells: Sequence[Cell], policy: ExecutionPolicy | None = None
) -> SweepReport:
    """Execute a sweep of cells under ``policy`` and report every outcome.

    Never raises for cell-level failures: failed cells appear in the
    report's :attr:`SweepReport.failures` and everything else completes.
    With a results database active, cells it already holds are served
    as ``cached`` and only the rest are dispatched.
    """
    policy = policy or current_policy()
    cells = list(cells)
    ids = [c.id for c in cells]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate cell ids in sweep: {dupes}")

    outcomes: dict[str, CellOutcome] = {}
    total = len(cells)
    pending = cells
    db = active_db()
    usage = DbUsage()
    if db is not None:
        pending = []
        for cell in cells:
            usage.lookups += 1
            hit, value = db.lookup_cell(cell)
            if hit:
                usage.hits += 1
                _record_outcome(outcomes, policy, CellOutcome(
                    id=cell.id, status="cached", value=value, source="db",
                ), total)
            else:
                pending.append(cell)

    run = _run_pool if policy.workers and policy.workers > 0 else _run_inline
    try:
        run(pending, policy, outcomes, total, db, usage)
    finally:
        if db is not None:
            _DB_TOTALS.add(usage)

    return SweepReport(
        outcomes={c.id: outcomes[c.id] for c in cells if c.id in outcomes},
        db_usage=usage if db is not None else None,
    )


def _record_outcome(
    outcomes: dict, policy: ExecutionPolicy, outcome: CellOutcome, total: int
) -> None:
    outcomes[outcome.id] = outcome
    if policy.progress is not None:
        policy.progress(outcome, len(outcomes), total)


def _normalize(value: Any) -> Any:
    # JSON round-trip fresh results so they are byte-identical to
    # database-served ones (tuples become lists, non-JSON values
    # become strings).
    return json.loads(json.dumps(value, default=str))


def _complete_fresh(
    outcomes: dict,
    policy: ExecutionPolicy,
    cell: Cell,
    value: Any,
    attempts: int,
    elapsed: float,
    total: int,
    db: ResultsDb | None,
    usage: DbUsage,
) -> None:
    """Record a freshly computed cell and write it back to the DB."""
    normalized = _normalize(value)
    usage.computed += 1
    if db is not None and db.store_cell(cell, normalized):
        usage.stored += 1
    _record_outcome(outcomes, policy, CellOutcome(
        id=cell.id, status="ok", value=normalized,
        attempts=attempts, elapsed=elapsed,
    ), total)


def _run_inline(
    pending: Sequence[Cell],
    policy: ExecutionPolicy,
    outcomes: dict,
    total: int,
    db: ResultsDb | None,
    usage: DbUsage,
) -> None:
    global _INLINE
    for cell in pending:
        attempt = 0
        started_total = time.monotonic()
        while True:
            deadline = (
                time.monotonic() + policy.timeout if policy.timeout else None
            )
            _INLINE = True
            try:
                value = _execute_cell(cell.fn, cell.spec, cell.id, attempt, deadline)
            except BaseException as exc:
                _INLINE = False
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                transient = policy.retry.is_transient(exc)
                error = f"{type(exc).__name__}: {exc}"
                if transient and attempt < policy.retry.max_retries:
                    time.sleep(policy.retry.delay(cell.id, attempt))
                    attempt += 1
                    continue
                _record_outcome(outcomes, policy, CellOutcome(
                    id=cell.id, status="failed", attempts=attempt + 1,
                    elapsed=time.monotonic() - started_total, error=error,
                ), total)
                break
            else:
                _INLINE = False
                _complete_fresh(
                    outcomes, policy, cell, value, attempt + 1,
                    time.monotonic() - started_total, total, db, usage,
                )
                break


#: Cell ``fn`` dotted path -> hook called once in the supervisor with
#: the pending cells' specs before a worker pool starts.  Lets cell
#: providers publish shared state to process-visible caches (e.g. the
#: on-disk trace store) so N workers don't each redo the same setup.
_PREWARM_HOOKS: dict[str, Callable[[list], None]] = {}


def register_prewarm(fn_path: str, hook: Callable[[list], None]) -> None:
    """Register ``hook`` to pre-warm before pool runs of ``fn_path`` cells.

    ``hook`` receives the list of specs of the pending cells whose
    ``fn`` matches.  Hooks are best-effort: they run once in the
    supervisor process and any exception is swallowed (pre-warming is
    an optimization; the workers can always fall back to doing the
    work themselves).
    """
    _PREWARM_HOOKS[fn_path] = hook


def _prewarm(pending: Sequence[Cell]) -> None:
    """Run registered pre-warm hooks for a pool sweep's pending cells.

    Each cell fn's module is imported first, since that is where its
    hook registers (as :func:`repro.harness.resultsdb.cell_fingerprint`
    imports it for its semantics versions): whether a sweep pre-warms
    never depends on what the supervisor happened to import before.
    """
    by_fn: dict[str, list] = {}
    for cell in pending:
        by_fn.setdefault(cell.fn, []).append(cell.spec)
    for fn_path, specs in by_fn.items():
        try:
            importlib.import_module(fn_path.partition(":")[0])
            hook = _PREWARM_HOOKS.get(fn_path)
            if hook is not None:
                hook(specs)
        except Exception:
            pass


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool, SIGKILLing any (possibly hung) workers."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.kill()
        except (OSError, AttributeError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    pending: Sequence[Cell],
    policy: ExecutionPolicy,
    outcomes: dict,
    total: int,
    db: ResultsDb | None,
    usage: DbUsage,
) -> None:
    queue: deque[tuple[Cell, int, float]] = deque(
        (cell, 0, 0.0) for cell in pending
    )  # (cell, attempt, not-before)
    _prewarm(pending)
    first_started: dict[str, float] = {}
    executor = ProcessPoolExecutor(max_workers=policy.workers)
    inflight: dict = {}  # future -> (cell, attempt, deadline)

    def terminal(cell: Cell, attempt: int, error: str) -> None:
        _record_outcome(outcomes, policy, CellOutcome(
            id=cell.id, status="failed", attempts=attempt + 1,
            elapsed=time.monotonic() - first_started.get(cell.id, time.monotonic()),
            error=error,
        ), total)

    def failed(cell: Cell, attempt: int, exc_or_msg, transient: bool) -> None:
        error = (
            exc_or_msg if isinstance(exc_or_msg, str)
            else f"{type(exc_or_msg).__name__}: {exc_or_msg}"
        )
        if transient and attempt < policy.retry.max_retries:
            delay = policy.retry.delay(cell.id, attempt)
            queue.append((cell, attempt + 1, time.monotonic() + delay))
        else:
            terminal(cell, attempt, error)

    try:
        while queue or inflight:
            now = time.monotonic()
            # Submit ready work up to pool capacity.
            blocked_until: float | None = None
            for _ in range(len(queue)):
                if len(inflight) >= policy.workers:
                    break
                cell, attempt, not_before = queue.popleft()
                if not_before > now:
                    queue.append((cell, attempt, not_before))
                    blocked_until = (
                        not_before if blocked_until is None
                        else min(blocked_until, not_before)
                    )
                    continue
                first_started.setdefault(cell.id, now)
                deadline = now + policy.timeout if policy.timeout else None
                future = executor.submit(
                    _execute_cell, cell.fn, cell.spec, cell.id, attempt, deadline
                )
                inflight[future] = (cell, attempt, deadline)
            if not inflight:
                if blocked_until is not None:
                    time.sleep(max(0.0, blocked_until - time.monotonic()))
                continue

            next_deadline = min(
                (d for (_, _, d) in inflight.values() if d is not None),
                default=None,
            )
            wait_for = None
            if next_deadline is not None:
                wait_for = max(0.0, next_deadline - time.monotonic()) + 0.01
            elif blocked_until is not None:
                wait_for = max(0.0, blocked_until - time.monotonic()) + 0.01
            done, _ = wait(
                set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for future in done:
                cell, attempt, _ = inflight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    # The worker died (crash fault, OOM, kill -9).  The
                    # pool is unusable; every sibling future dies with
                    # it -- handled below.
                    failed(cell, attempt, "worker process died", True)
                    pool_broken = True
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    failed(cell, attempt, exc, policy.retry.is_transient(exc))
                else:
                    _complete_fresh(
                        outcomes, policy, cell, value, attempt + 1,
                        time.monotonic() - first_started[cell.id], total,
                        db, usage,
                    )

            # Reap overdue workers: kill the pool, charge the overdue
            # cells a timeout, resubmit innocents at the same attempt.
            now = time.monotonic()
            overdue = [
                future for future, (_, _, deadline) in inflight.items()
                if deadline is not None and now >= deadline
            ]
            if overdue or (pool_broken and inflight):
                for future, (cell, attempt, deadline) in list(inflight.items()):
                    if future in overdue:
                        failed(
                            cell, attempt,
                            f"timeout after {policy.timeout:.1f}s "
                            "(worker reaped)",
                            True,
                        )
                    elif pool_broken:
                        failed(cell, attempt, "worker process died", True)
                    else:
                        # Innocent victim of the pool teardown: requeue
                        # without charging an attempt.
                        queue.appendleft((cell, attempt, 0.0))
                inflight.clear()
                pool_broken = True
            if pool_broken:
                _kill_pool(executor)
                executor = ProcessPoolExecutor(max_workers=policy.workers)
    finally:
        _kill_pool(executor)
