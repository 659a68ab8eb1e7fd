"""Shared low-level utilities used by every subsystem.

This package deliberately contains only dependency-free building blocks:
bit manipulation, hashing, saturating and forward-probabilistic counters,
and deterministic random-number streams.  Everything in here is pure and
easily property-testable.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.bits": (
        "bit_length_for", "fold_bits", "mask", "sign_extend", "truncate",
    ),
    "repro.common.counters": ("SaturatingCounter",),
    "repro.common.fpc": ("ForwardProbabilisticCounter", "FpcVector"),
    "repro.common.hashing": ("mix64", "path_hash", "pc_index", "pc_tag"),
    "repro.common.rng": ("DeterministicRng",),
})

__all__ = [
    "DeterministicRng",
    "ForwardProbabilisticCounter",
    "FpcVector",
    "SaturatingCounter",
    "bit_length_for",
    "fold_bits",
    "mask",
    "mix64",
    "path_hash",
    "pc_index",
    "pc_tag",
    "sign_extend",
    "truncate",
]
