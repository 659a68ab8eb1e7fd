"""Crash-safe JSONL journaling for resilient experiment sweeps.

A :class:`Journal` is an append-only file of one-JSON-object-per-line
records.  Each record is flushed and fsync'd as it is written, so a run
killed at any instant loses at most the record being appended -- and a
half-written trailing line is tolerated (skipped) by :meth:`Journal.read`.
The journal never rewrites history; "finalization" of a sweep's combined
result goes through :func:`repro.common.atomicfile.atomic_write_json`,
so readers observe either the old complete file or the new complete
file, never a torn one.

Record vocabulary (the resilient engine's, not enforced here):

* ``{"type": "campaign", "campaign": <digest>, "cells": N}`` -- header,
  written once per fresh journal; resumed runs verify the digest so a
  journal from a *different* sweep is rejected instead of silently
  mixing results.
* ``{"type": "cell", "id": ..., "status": "ok", "value": {...}}`` --
  a completed cell; the last ``ok`` record per id wins.  Cells served
  from the cross-campaign results database are recorded identically
  but with ``"status": "cached"`` -- equivalent for resume purposes.
* ``{"type": "cell", "id": ..., "status": "failed", "error": ...}`` --
  a terminally failed cell (recomputed on resume).
* ``{"type": "retry", ...}`` -- informational attempt record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator


class JournalError(RuntimeError):
    """A journal exists but cannot be used for the requested sweep."""


class Journal:
    """An append-only JSONL record stream with durable appends."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None
        #: Lines that failed to parse during the last :meth:`read`.
        self.corrupt_lines = 0

    # -- writing -------------------------------------------------------

    def start(self, header: dict) -> None:
        """Begin a fresh journal (truncating any previous file)."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.append(header)

    def open_append(self) -> None:
        """Reopen an existing journal for appending (resume).

        If the previous writer died mid-line (no trailing newline), a
        newline is inserted first so the next record starts cleanly;
        the partial line is left in place and skipped by :meth:`read`.
        """
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        needs_newline = False
        try:
            with self.path.open("rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
        except FileNotFoundError:
            pass
        self._fh = self.path.open("a", encoding="utf-8")
        if needs_newline:
            self._fh.write("\n")
            self._sync()

    def append(self, record: dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open for writing")
        self._fh.write(json.dumps(record, separators=(",", ":"), default=str))
        self._fh.write("\n")
        self._sync()

    def append_corrupted(self, record: dict) -> None:
        """Append a deliberately torn record (fault injection only).

        Writes roughly half the serialized record and *no* newline --
        exactly what a crash mid-append leaves behind -- so tests can
        prove that :meth:`read` skips the wreckage and that a resumed
        run recomputes the affected cell.
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open for writing")
        line = json.dumps(record, separators=(",", ":"), default=str)
        self._fh.write(line[: max(1, len(line) // 2)])
        self._sync()
        # Keep subsequent appends on their own lines.
        self._fh.write("\n")
        self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the underlying file handle, if open."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------

    def read(self) -> Iterator[dict]:
        """Yield parseable records in order, skipping corrupt lines.

        Counts skipped lines in :attr:`corrupt_lines`.  A missing file
        yields nothing.
        """
        self.corrupt_lines = 0
        try:
            fh = self.path.open("r", encoding="utf-8")
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if isinstance(record, dict):
                    yield record
                else:
                    self.corrupt_lines += 1

    def load_completed(self, campaign: str) -> dict[str, Any]:
        """Completed cell values keyed by cell id, for resuming.

        Verifies the journal's campaign header against ``campaign`` and
        raises :class:`JournalError` on a mismatch (the journal belongs
        to a different sweep -- mixing would corrupt results).  A
        journal with no readable header is treated as empty.
        """
        completed: dict[str, Any] = {}
        saw_header = False
        for record in self.read():
            kind = record.get("type")
            if kind == "campaign":
                recorded = record.get("campaign")
                if recorded != campaign:
                    raise JournalError(
                        f"journal {self.path} belongs to campaign "
                        f"{recorded!r}, not {campaign!r}; refusing to resume "
                        "(delete the journal or point --journal elsewhere)"
                    )
                saw_header = True
            elif kind == "cell" and record.get("status") in ("ok", "cached"):
                completed[record["id"]] = record.get("value")
            elif kind == "cell" and record.get("status") == "failed":
                completed.pop(record["id"], None)
        if not saw_header:
            return {}
        return completed
