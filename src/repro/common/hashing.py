"""Index/tag hash functions for predictor tables.

The paper specifies its hashes informally ("hashing the PC bits of a
load", "(PC >> 2) xor (PC >> 8)").  We implement the PC-AM hashes exactly
as printed and use a common folded-XOR scheme everywhere else, which is
the standard hardware idiom (TAGE uses the same trick).

:func:`stable_digest` is the odd one out: a content digest of plain
data (specs, configurations), stable across processes, for recording
a durable session's spec.  Results-database fingerprints canonicalize
with the same :func:`jsonable` reduction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Any

import numpy as np

from repro.common.bits import fold_bits, mask, truncate  # noqa: F401 (mask re-exported for table code)

# A 64-bit odd multiplier (splitmix64 finalizer constant) used to decorrelate
# table banks; purely combinational in hardware terms (fixed rewiring).
_MIX_CONSTANT = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """Cheap 64-bit integer scramble used to decorrelate hash inputs."""
    value &= _MASK64
    value ^= value >> 30
    value = value * _MIX_CONSTANT & _MASK64
    value ^= value >> 27
    return value


def mix64_np(values: np.ndarray) -> np.ndarray:
    """Element-wise :func:`mix64` (uint64 wraparound multiply)."""
    v = values.astype(np.uint64)
    v ^= v >> np.uint64(30)
    v = v * np.uint64(_MIX_CONSTANT)
    v ^= v >> np.uint64(27)
    return v


def pc_index(pc: int, index_bits: int, history: int = 0, salt: int = 0) -> int:
    """Table index from a load PC plus optional folded history.

    Instruction PCs are at least 4-byte aligned on ARM, so the low two
    bits are dropped before folding (the paper's PC-AM hash does the
    same: ``(PC >> 2) ^ (PC >> 8)``).
    """
    if index_bits < 0:
        raise ValueError(f"index_bits must be non-negative, got {index_bits}")
    if index_bits == 0:
        return 0  # degenerate one-entry table
    # XOR three differently-shifted PC windows and truncate.  (Folding
    # the XOR-of-shifts would cancel the shifted terms back out.)
    base = (
        (pc >> 2)
        ^ (pc >> (2 + index_bits))
        ^ (pc >> (2 + 2 * index_bits + 3))
    )
    if salt:
        base ^= mix64(salt)
    if history:
        base ^= fold_bits(history, index_bits)
    # Inline mask(index_bits): this runs once per LVP/SAP probe/train.
    return base & ((1 << index_bits) - 1)


def pc_tag(pc: int, tag_bits: int, history: int = 0, salt: int = 0) -> int:
    """Partial tag from a load PC plus optional folded history.

    Tag and index must use *different* foldings of the same inputs or
    aliasing pairs would collide in both, defeating the tag.  We shift the
    PC by a tag-specific amount, mirroring the paper's PC-AM tag
    ``(PC >> 2) ^ (PC >> 12)``.
    """
    if tag_bits <= 0:
        raise ValueError(f"tag_bits must be positive, got {tag_bits}")
    base = (pc >> 2) ^ (pc >> (2 + tag_bits)) ^ (pc >> (2 + 2 * tag_bits + 1))
    if salt:
        base ^= mix64(salt * 3)
    if history:
        base ^= fold_bits(mix64(history), tag_bits)
    return fold_bits(base, tag_bits)


def path_hash(history: int, new_pc: int, width: int) -> int:
    """Shift a new PC into a path-history register of ``width`` bits.

    Path history (as used by CAP and the branch predictors) is a shift
    register: each new PC contributes a few low-order bits and older PCs
    age out.  Two bits per PC is the common choice.
    """
    if width <= 0:
        raise ValueError(f"path history width must be positive, got {width}")
    # Mix higher PC bits into the 2-bit contribution: instructions at
    # the same offset of different cache blocks must contribute
    # different bits, or same-shaped loops would alias in the path.
    contribution = ((new_pc >> 2) ^ (new_pc >> 5) ^ (new_pc >> 9)) & 0b11
    return ((history << 2) | contribution) & mask(width)


def jsonable(obj: Any) -> Any:
    """Reduce ``obj`` to pure JSON types for canonical hashing.

    Dataclasses (e.g. a ``CompositeConfig``) are reduced via ``asdict``,
    sets are sorted, and anything else non-JSON falls back to ``repr``.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [jsonable(v) for v in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def stable_digest(obj: Any) -> str:
    """A short hex digest of ``obj``, stable across processes and runs.

    Used to record a durable session's spec, so reopening a session
    under a different spec is detected.
    """
    canonical = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
