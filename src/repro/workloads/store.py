"""Content-addressed on-disk trace store.

Trace generation is deterministic in ``(workload, length, seed)`` but
costs ~100 ms per 20k-instruction trace -- and sweep campaigns with
``--workers N`` used to regenerate every trace once *per worker
process*.  This module persists packed columnar traces
(:class:`repro.isa.columns.TraceColumns`) on disk, keyed by the SHA-256
of ``(workload, length, seed, generator-version, format-version)``, so
any process -- a pool worker, a rerun campaign, a perfbench run --
loads a few raw byte buffers instead of re-running the
generator.

Design points:

* **Activation.**  The store is off unless the
  ``REPRO_TRACE_CACHE_DIR`` environment variable names a directory
  (created on first save).  :func:`active_store` resolves the ambient
  store once per distinct setting; :func:`reset_active_store` drops the
  handle (``clear_caches`` and tests).
* **Content addressing.**  The key digests every input that determines
  the trace bytes, including
  :data:`repro.workloads.generator.GENERATOR_VERSION` -- bump that
  constant when generation logic changes and stale entries simply stop
  matching (no invalidation pass).
* **File safety.**  Entries are sealed files published and verified by
  :mod:`repro.common.atomicfile`; a bad entry (including a foreign byte
  order or identity) is evicted, counted ``corrupt`` and reported as a
  miss, and the caller's regeneration repairs the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.atomicfile import (
    CorruptEntryError,
    read_or_evict,
    remove_files,
    unseal,
    write_sealed,
)
from repro.isa.columns import TraceColumns
from repro.isa.trace import Trace

#: Environment variable naming the store directory (unset = disabled).
ENV_VAR = "REPRO_TRACE_CACHE_DIR"

#: On-disk entry layout version; bump on any format change.
FORMAT_VERSION = 1

_MAGIC = b"RLVPTRC\x01"
_SUFFIX = ".trc"


@dataclass
class StoreStats:
    """Per-process counters for one :class:`TraceStore` handle."""

    hits: int = 0
    misses: int = 0
    saves: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of the counters."""
        return {
            "hits": self.hits, "misses": self.misses,
            "saves": self.saves, "corrupt": self.corrupt,
        }


@dataclass
class TraceStore:
    """A directory of content-addressed packed-trace entries."""

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    @staticmethod
    def digest(
        name: str, length: int, seed: int, generator_version: int
    ) -> str:
        """Content digest of one trace's identity."""
        key = json.dumps(
            [name, length, seed, generator_version, FORMAT_VERSION],
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    def entry_path(
        self, name: str, length: int, seed: int, generator_version: int
    ) -> Path:
        """Where the entry for this identity lives (may not exist)."""
        digest = self.digest(name, length, seed, generator_version)
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
        return self.root / f"{safe}-{digest[:20]}{_SUFFIX}"

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------

    def save(
        self, trace: Trace, length: int, generator_version: int
    ) -> Path:
        """Persist ``trace`` (packing it if needed), atomically."""
        columns = trace.pack()
        col_meta, buffers = columns.to_buffers()
        memory = trace.initial_memory
        mem_keys = mem_values = b""
        if memory is not None:
            mem_keys, mem_values = memory.to_packed()
        header = {
            "name": trace.name,
            "length": length,
            "seed": trace.seed,
            "generator_version": generator_version,
            "metadata": trace.metadata,
            "byteorder": sys.byteorder,
            "columns": col_meta,
            "memory": (
                None if memory is None
                else {"keys_bytes": len(mem_keys),
                      "values_bytes": len(mem_values)}
            ),
        }
        path = self.entry_path(trace.name, length, trace.seed,
                               generator_version)
        self.root.mkdir(parents=True, exist_ok=True)
        write_sealed(path, _MAGIC, FORMAT_VERSION, header,
                     *buffers, mem_keys, mem_values)
        self.stats.saves += 1
        return path

    def load(
        self, name: str, length: int, seed: int, generator_version: int
    ) -> Trace | None:
        """Load the entry for this identity, or ``None`` on miss.

        A structurally invalid or checksum-failing entry is deleted,
        counted in :attr:`StoreStats.corrupt`, and reported as a miss.
        """
        path = self.entry_path(name, length, seed, generator_version)
        try:
            trace = read_or_evict(path, lambda raw: self._parse(
                raw, name, length, seed, generator_version))
        except CorruptEntryError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return trace

    def _parse(
        self, raw: bytes, name: str, length: int, seed: int,
        generator_version: int,
    ) -> Trace:
        """Decode one entry's bytes (raising on any inconsistency)."""
        from repro.memory.image import MemoryImage

        header, body = unseal(raw, _MAGIC, FORMAT_VERSION)
        identity = (header.get("name"), header.get("length"),
                    header.get("seed"), header.get("generator_version"))
        if identity != (name, length, seed, generator_version):
            raise CorruptEntryError(
                f"entry identity {identity} does not match request"
            )
        if header.get("byteorder") != sys.byteorder:
            raise CorruptEntryError("foreign byte order")
        col_meta = header["columns"]
        buffers = []
        offset = 0
        for desc in col_meta["columns"]:
            size = int(desc["bytes"])
            buffers.append(body[offset:offset + size])
            offset += size
        columns = TraceColumns.from_buffers(col_meta, buffers)
        memory = None
        mem_desc = header.get("memory")
        if mem_desc is not None:
            keys_len = int(mem_desc["keys_bytes"])
            values_len = int(mem_desc["values_bytes"])
            if offset + keys_len + values_len != len(body):
                raise CorruptEntryError("memory section length mismatch")
            memory = MemoryImage.from_packed(
                body[offset:offset + keys_len],
                body[offset + keys_len:offset + keys_len + values_len],
            )
        elif offset != len(body):
            raise CorruptEntryError("trailing bytes after columns")
        return Trace(
            name=header["name"],
            seed=header["seed"],
            metadata=header.get("metadata", {}),
            initial_memory=memory,
            columns=columns,
        )

    # ------------------------------------------------------------------
    # Inspection and maintenance (the ``repro-lvp cache`` subcommand)
    # ------------------------------------------------------------------

    def scan(self) -> dict:
        """On-disk stats: entry count, total bytes, per-entry summary."""
        entries = []
        total = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob(f"*{_SUFFIX}")):
                size = path.stat().st_size
                total += size
                entries.append({"file": path.name, "bytes": size})
        return {
            "path": str(self.root),
            "entries": len(entries),
            "total_bytes": total,
            "files": entries,
            "process_stats": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every entry (and stale temp files); returns the count."""
        return remove_files(self.root, f"*{_SUFFIX}")


# ----------------------------------------------------------------------
# Ambient store handle
# ----------------------------------------------------------------------

_active: TraceStore | None = None
_active_root: str | None = None


def active_store() -> TraceStore | None:
    """The process-wide store named by ``REPRO_TRACE_CACHE_DIR``.

    Returns ``None`` when the variable is unset or empty.  The handle
    (and its per-process :class:`StoreStats`) persists until the
    variable's value changes or :func:`reset_active_store` is called.
    """
    global _active, _active_root
    root = os.environ.get(ENV_VAR) or None
    if root != _active_root:
        _active_root = root
        _active = TraceStore(Path(root)) if root else None
    return _active


def reset_active_store() -> None:
    """Drop the ambient store handle (fresh stats on next access)."""
    global _active, _active_root
    _active = None
    _active_root = None
