"""Content-addressed, on-disk experiment-results database.

Every sweep cell in this repository is a pure function of its inputs:
a picklable ``"module:function"`` reference plus a declarative spec
(workload name, trace length, seed, predictor configuration,
functional-vs-cycle mode), so a finished cell never needs computing
twice: not by a rerun of a killed campaign, a different figure, a
design-space search, or a rerun on another day.

This module persists cell results on disk keyed by a SHA-256
**fingerprint** of everything that determines the value:

* the cell function's dotted path (``run_speedup_cell`` vs
  ``run_functional_cell`` encodes the cycle-vs-functional mode);
* the canonicalized spec (dataclasses such as ``CompositeConfig`` are
  reduced via ``asdict``, tuples become lists, keys are sorted);
* the package version (``repro.__version__``);
* a registry of **per-module semantics versions**
  (:func:`register_semantics`): when a module changes the meaning of
  results -- the timing model, the functional evaluator, the trace
  generator -- it bumps its version and every stale entry simply stops
  matching.  No invalidation pass is ever needed.

Layered *under* :mod:`repro.harness.resilient`, the database turns
"rerun Figure 9" into "query the DB": the supervisor consults it
before dispatching a cell and writes back on success, so any cell ever
computed -- by a figure sweep, by ``repro-lvp explore``, by another
process -- is reused everywhere.  It is the one record of finished
cells: a campaign killed mid-run finishes by rerunning the same
command, which serves every stored cell and computes only the rest.

Design points:

* **Activation.**  Off unless ``REPRO_RESULTS_DB_DIR`` names a
  directory (created on first save).  :func:`active_db` resolves the
  ambient handle once per distinct setting; :func:`reset_active_db`
  drops it (``clear_caches`` and tests).
* **File safety.**  Each entry is one JSON object carrying a magic, a
  format version, its own fingerprint and a SHA-256 of the canonical
  value, published and verified-or-evicted by
  :mod:`repro.common.atomicfile`; a bad entry is counted ``corrupt``
  and reported as a miss, and the write-back repairs it.
* **In-process memo.**  A bounded LRU of parsed values sits above the
  disk entries so thousand-cell campaigns do not re-read and re-parse
  the same files.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.atomicfile import (
    CorruptEntryError,
    atomic_write,
    parse_json_object,
    read_json_object,
    read_or_evict,
    remove_files,
)
from repro.common.hashing import jsonable

#: Environment variable naming the database directory (unset = disabled).
ENV_VAR = "REPRO_RESULTS_DB_DIR"

#: On-disk entry layout version; bump on any format change.
FORMAT_VERSION = 1

#: First line of every entry file (sanity check before JSON parsing).
_MAGIC = "repro-resultsdb"

_SUFFIX = ".res"

#: Most parsed values kept in the in-process memo.
MEMO_SIZE = 65536

# ----------------------------------------------------------------------
# Semantics registry and fingerprints
# ----------------------------------------------------------------------

_SEMANTICS: dict[str, int] = {}


def register_semantics(name: str, version: int) -> None:
    """Declare that module ``name`` computes results at ``version``.

    Modules whose logic determines cell values (the timing model, the
    functional evaluator, the trace generator) register themselves
    here; bumping the version changes every fingerprint that could
    depend on that module, so stale database entries stop matching
    without any invalidation pass.  Registration is idempotent.
    """
    _SEMANTICS[str(name)] = int(version)


def semantics_versions() -> dict[str, int]:
    """The current registry snapshot, sorted by module name."""
    return dict(sorted(_SEMANTICS.items()))


def _package_version() -> str:
    # Imported lazily: ``repro/__init__`` pulls in heavy subpackages
    # and importing it at module load would risk cycles.
    return importlib.import_module("repro").__version__


def cell_fingerprint(fn: str, spec: Any) -> str:
    """The content fingerprint of one cell's work.

    Digests the cell function path, the canonicalized spec, the
    package version, and the semantics registry.  The function's
    module is imported first so any semantics versions it registers
    are present before the registry is snapshotted -- a process that
    only *reads* the database still fingerprints identically to the
    one that wrote it.
    """
    module_name = fn.partition(":")[0]
    if module_name:
        importlib.import_module(module_name)
    payload = {
        "format": FORMAT_VERSION,
        "fn": fn,
        "spec": jsonable(spec),
        "code_version": _package_version(),
        "semantics": semantics_versions(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _value_digest(value: Any) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The database
# ----------------------------------------------------------------------

@dataclass
class DbStats:
    """Per-process counters for one :class:`ResultsDb` handle."""

    hits: int = 0
    memo_hits: int = 0
    misses: int = 0
    saves: int = 0
    save_errors: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of the counters."""
        return {
            "hits": self.hits, "memo_hits": self.memo_hits,
            "misses": self.misses, "saves": self.saves,
            "save_errors": self.save_errors, "corrupt": self.corrupt,
        }


#: Returned by :meth:`ResultsDb.lookup` on a miss (``None`` is a legal
#: stored value, so a sentinel distinguishes "absent" from "null").
_MISS = object()


@dataclass
class ResultsDb:
    """A directory of content-addressed experiment-result entries."""

    root: Path
    stats: DbStats = field(default_factory=DbStats)
    _memo: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def entry_path(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives (may not exist).

        Entries fan out over 256 two-hex-digit subdirectories so
        thousand-config campaigns do not pile every file into one
        directory.
        """
        return self.root / fingerprint[:2] / f"{fingerprint}{_SUFFIX}"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def lookup(self, fingerprint: str) -> tuple[bool, Any]:
        """``(hit, value)`` for ``fingerprint``.

        Checks the in-process memo first, then disk.  A structurally
        invalid or checksum-failing entry is deleted, counted in
        :attr:`DbStats.corrupt`, and reported as a miss -- the caller
        recomputes and the next :meth:`store` repairs the database.
        """
        memoized = self._memo.get(fingerprint, _MISS)
        if memoized is not _MISS:
            self._memo.move_to_end(fingerprint)
            self.stats.hits += 1
            self.stats.memo_hits += 1
            return True, memoized
        try:
            value = read_or_evict(
                self.entry_path(fingerprint),
                lambda raw: self._parse(raw, fingerprint),
            )
        except CorruptEntryError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return False, None
        except OSError:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        self._memoize(fingerprint, value)
        return True, value

    def store(self, fingerprint: str, value: Any, meta: dict | None = None) -> bool:
        """Persist ``value`` under ``fingerprint``, atomically.

        ``value`` must be JSON-serializable (sweep cells always are:
        the supervisor JSON round-trips results before recording them).
        ``meta`` is extra context stored alongside for humans reading
        the entry (the cell fn, code versions); it never affects the
        key.  Returns ``False`` -- and counts a ``save_error`` --
        instead of raising when the filesystem refuses the write: the
        database is an optimization, never a reason to fail a campaign.
        """
        record = {
            "magic": _MAGIC,
            "format": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "value_sha256": _value_digest(value),
            "value": value,
            "meta": meta or {},
        }
        raw = json.dumps(record, separators=(",", ":")) + "\n"
        path = self.entry_path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, raw.encode("utf-8"))
        except OSError:
            self.stats.save_errors += 1
            return False
        self.stats.saves += 1
        self._memoize(fingerprint, value)
        return True

    def lookup_cell(self, cell) -> tuple[bool, Any]:
        """:meth:`lookup` keyed by a resilient-harness cell's work."""
        return self.lookup(cell_fingerprint(cell.fn, cell.spec))

    def store_cell(self, cell, value: Any) -> bool:
        """:meth:`store` keyed by a resilient-harness cell's work."""
        return self.store(
            cell_fingerprint(cell.fn, cell.spec), value,
            meta={
                "fn": cell.fn,
                "code_version": _package_version(),
                "semantics": semantics_versions(),
            },
        )

    def _parse(self, raw: bytes, fingerprint: str) -> Any:
        """Decode one entry's bytes (raising on any inconsistency)."""
        record = parse_json_object(raw)
        if record.get("magic") != _MAGIC:
            raise CorruptEntryError("bad magic")
        if record.get("format") != FORMAT_VERSION:
            raise CorruptEntryError(
                f"unsupported format version {record.get('format')}"
            )
        if record.get("fingerprint") != fingerprint:
            raise CorruptEntryError("entry fingerprint does not match request")
        value = record.get("value")
        if _value_digest(value) != record.get("value_sha256"):
            raise CorruptEntryError("value checksum mismatch")
        return value

    def _memoize(self, fingerprint: str, value: Any) -> None:
        self._memo[fingerprint] = value
        self._memo.move_to_end(fingerprint)
        while len(self._memo) > MEMO_SIZE:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # Inspection and maintenance (the ``repro-lvp cache`` subcommand)
    # ------------------------------------------------------------------

    def scan(self) -> dict:
        """On-disk stats: entry count and total bytes."""
        entries = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.glob(f"??/*{_SUFFIX}"):
                entries += 1
                total += path.stat().st_size
        return {
            "path": str(self.root),
            "entries": entries,
            "total_bytes": total,
            "process_stats": self.stats.as_dict(),
        }

    def gc(self, dry_run: bool = False) -> dict:
        """Evict entries recorded under stale code/semantics versions.

        An entry is *stale* when its recorded ``meta.code_version``
        differs from the current package version, or when any module it
        recorded a semantics version for now registers a different one
        (each entry's cell function module is imported first so its
        registrations are live, exactly as :func:`cell_fingerprint`
        does).  Stale entries can never be served again -- their
        fingerprints stopped matching the moment a version bumped -- so
        they are pure dead weight on disk.  Entries written without
        version metadata (or whose metadata cannot be judged) are kept
        and counted as ``unversioned``.

        With ``dry_run`` nothing is deleted; the report's ``stale``
        count shows what a real pass would evict.
        """
        report = {
            "path": str(self.root),
            "scanned": 0,
            "stale": 0,
            "removed": 0,
            "kept": 0,
            "unversioned": 0,
            "dry_run": bool(dry_run),
        }
        if not self.root.is_dir():
            return report
        current_version = _package_version()
        for path in sorted(self.root.glob(f"??/*{_SUFFIX}")):
            report["scanned"] += 1
            stale = False
            unversioned = False
            try:
                record = read_json_object(path) or {}
                meta = record.get("meta")
                meta = meta if isinstance(meta, dict) else {}
                recorded_code = meta.get("code_version")
                recorded_semantics = meta.get("semantics")
                if recorded_code is None:
                    unversioned = True
                elif recorded_code != current_version:
                    stale = True
                elif isinstance(recorded_semantics, dict):
                    # Import the cell fn's module so the semantics it
                    # registers are present before comparing.
                    fn = meta.get("fn")
                    module_name = (
                        fn.partition(":")[0] if isinstance(fn, str) else ""
                    )
                    if module_name:
                        importlib.import_module(module_name)
                    current = semantics_versions()
                    stale = any(
                        current.get(name) != version
                        for name, version in recorded_semantics.items()
                    )
                else:
                    unversioned = True
            except (OSError, ValueError, ImportError):
                # Unreadable or unjudgeable: leave it for lookup()'s
                # corruption path rather than guessing here.
                unversioned = True
            if unversioned:
                report["unversioned"] += 1
                report["kept"] += 1
                continue
            if not stale:
                report["kept"] += 1
                continue
            report["stale"] += 1
            if dry_run:
                continue
            try:
                path.unlink()
                report["removed"] += 1
            except OSError:
                report["kept"] += 1
        if not dry_run and report["removed"]:
            self._memo.clear()
        return report

    def clear(self) -> int:
        """Delete every entry (and stale temp files); returns the count."""
        self._memo.clear()
        return remove_files(self.root, f"??/*{_SUFFIX}")


# ----------------------------------------------------------------------
# Ambient database handle
# ----------------------------------------------------------------------

_active: ResultsDb | None = None
_active_root: str | None = None


def active_db() -> ResultsDb | None:
    """The process-wide database named by ``REPRO_RESULTS_DB_DIR``.

    Returns ``None`` when the variable is unset or empty.  The handle
    (with its memo and per-process :class:`DbStats`) persists until the
    variable's value changes or :func:`reset_active_db` is called.
    """
    global _active, _active_root
    root = os.environ.get(ENV_VAR) or None
    if root != _active_root:
        _active_root = root
        _active = ResultsDb(Path(root)) if root else None
    return _active


def reset_active_db() -> None:
    """Drop the ambient handle (fresh memo and stats on next access)."""
    global _active, _active_root
    _active = None
    _active_root = None
