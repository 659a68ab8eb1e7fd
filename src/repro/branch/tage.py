"""TAGE conditional branch predictor (Seznec & Michaud).

A base bimodal table plus ``num_tables`` partially-tagged tables indexed
with geometrically increasing direction-history lengths.  The prediction
comes from the longest matching table (the *provider*); the next longest
match (or the base table) is the *alternate*.  Allocation on mispredict,
2-bit usefulness counters with periodic graceful aging, and the
``use_alt_on_na`` heuristic for newly-allocated entries are all modeled,
following the canonical description.

A branch's table indices and tags depend on its PC and the histories
only, never on table state, so they are computed for a whole trace at
once by :meth:`TagePredictor.hash_columns` and handed to
:meth:`TagePredictor.predict` branch by branch.  The tables themselves
are flat per-field columns (one list per field per table).  The
pipeline calls :meth:`TagePredictor.predict` at fetch and passes the
returned context back to :meth:`TagePredictor.train` when the branch
resolves, mirroring the real prediction-to-update delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import bit_length_for, fold_bits_np, mask, shr_np
from repro.common.hashing import mix64
from repro.common.rng import DeterministicRng
from repro.branch.bimodal import BimodalPredictor
from repro.branch.history import direction_folds

_TAG_SCRAMBLE = 0x9E3779B97F4A7C15

#: Type of a branch's hashes: ``(indices, tags)``, one of each per table.
Hashes = tuple[tuple[int, ...], tuple[int, ...]]


def geometric_lengths(num_tables: int, lo: int, hi: int) -> tuple[int, ...]:
    """The geometric history series L(1)..L(N) from ``lo`` to ``hi``,
    strictly increasing."""
    if num_tables == 1:
        return (lo,)
    ratio = (hi / lo) ** (1.0 / (num_tables - 1))
    lengths = []
    for i in range(num_tables):
        length = int(round(lo * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return tuple(lengths)


def check_geometry(config, min_tag_bits: int) -> None:
    """Raise ``ValueError`` unless ``config`` (a TAGE or ITTAGE
    geometry) can be built and hashed: tags up to 64 bits fit the
    column kernels' uint64 lanes."""
    name = type(config).__name__
    if config.num_tables < 1:
        raise ValueError(
            f"{name}.num_tables must be >= 1, got {config.num_tables}"
        )
    for field, least in (("entries_per_table", 2), ("base_entries", 1)):
        entries = getattr(config, field)
        if entries < least or entries & (entries - 1):
            raise ValueError(
                f"{name}.{field} must be a power of two >= {least}, "
                f"got {entries}"
            )
    if not min_tag_bits <= config.tag_bits <= 64:
        raise ValueError(
            f"{name}.tag_bits must be in {min_tag_bits}..64, "
            f"got {config.tag_bits}"
        )
    if config.min_history < 1:
        raise ValueError(
            f"{name}.min_history must be >= 1, got {config.min_history}"
        )
    if config.max_history < config.min_history:
        raise ValueError(
            f"{name}.max_history ({config.max_history}) must be >= "
            f"min_history ({config.min_history})"
        )


@dataclass(frozen=True)
class TageConfig:
    """Geometry of the TAGE predictor.

    Defaults approximate the 32KB TAGE of the paper's baseline: six
    tagged tables of 1K entries (11-bit tags, 3-bit counters, 2-bit
    usefulness -> 6 x 1K x 16b = 12KB) plus an 8K-entry bimodal base,
    with history lengths spanning 5..130 geometrically.
    """

    num_tables: int = 6
    entries_per_table: int = 1024
    base_entries: int = 8192
    tag_bits: int = 11
    counter_bits: int = 3
    useful_bits: int = 2
    min_history: int = 5
    max_history: int = 130
    #: Usefulness counters are aged (halved) every this many updates.
    aging_period: int = 256 * 1024

    def __post_init__(self) -> None:
        # The tag folds the history to tag_bits - 1 bits.
        check_geometry(self, min_tag_bits=2)
        for field in ("counter_bits", "useful_bits"):
            if getattr(self, field) < 1:
                raise ValueError(
                    f"TageConfig.{field} must be >= 1, "
                    f"got {getattr(self, field)}"
                )

    def history_lengths(self) -> tuple[int, ...]:
        """Geometric history series L(1)..L(N)."""
        return geometric_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass(slots=True)
class TagePrediction:
    """What ``predict`` saw; passed back verbatim to ``train``."""

    taken: bool
    provider: int  # table number, -1 = base
    provider_index: int
    provider_weak: bool
    alt_taken: bool
    alt_provider: int
    alt_index: int
    indices: tuple[int, ...]
    tags: tuple[int, ...]


class TagePredictor:
    """The TAGE direction predictor."""

    def __init__(self, config: TageConfig | None = None,
                 rng: DeterministicRng | None = None) -> None:
        self.config = config or TageConfig()
        self._rng = rng or DeterministicRng(0, "tage")
        cfg = self.config
        self._lengths = cfg.history_lengths()
        self._index_bits = bit_length_for(cfg.entries_per_table)
        entries = cfg.entries_per_table
        # One column per entry field per table.  Counters are centered:
        # taken if >= midpoint.
        self._tags = [[0] * entries for _ in range(cfg.num_tables)]
        self._counters = [[0] * entries for _ in range(cfg.num_tables)]
        self._useful = [[0] * entries for _ in range(cfg.num_tables)]
        self._probe_order = tuple(range(cfg.num_tables - 1, -1, -1))
        self._base = BimodalPredictor(cfg.base_entries)
        self._counter_max = (1 << cfg.counter_bits) - 1
        self._counter_mid = 1 << (cfg.counter_bits - 1)
        self._useful_max = (1 << cfg.useful_bits) - 1
        # Per-table hash salts (fixed rewiring in hardware).
        index_mask = mask(self._index_bits)
        self._index_salts = tuple(
            mix64(t + 1) & index_mask for t in range(cfg.num_tables)
        )
        # USE_ALT_ON_NA: 4-bit signed counter deciding whether weak,
        # newly allocated providers should defer to the alternate.
        self._use_alt_on_na = 8
        self._updates_until_aging = cfg.aging_period

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def hash_columns(
        self,
        pc: np.ndarray,
        direction: np.ndarray,
        pushes: np.ndarray,
        path: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every table's index and tag for a column of branches.

        ``pc`` and ``path`` (the 32-bit branch path history at each
        branch) are uint64 columns; ``direction`` holds the low 64 bits
        of the direction history after each number of conditional
        branches and ``pushes`` the number before each branch (see
        :func:`repro.branch.history.direction_folds`).  Returns two
        ``(num_tables, len(pc))`` uint64 arrays.  The tag's
        multiplicative scramble works mod 2**64, so it reads only the
        low ``min(length, 64)`` history bits.
        """
        cfg = self.config
        ib = self._index_bits
        tb = cfg.tag_bits
        pca = pc >> np.uint64(2)
        pcx = pca ^ shr_np(pc, 2 + ib)
        path_fold = fold_bits_np(path, ib)
        recent = direction[pushes]
        indices = np.empty((cfg.num_tables, len(pc)), dtype=np.uint64)
        tags = np.empty_like(indices)
        for t, length in enumerate(self._lengths):
            value = (
                pcx ^ direction_folds(direction, pushes, length, ib)
                ^ path_fold ^ np.uint64(self._index_salts[t])
            )
            indices[t] = fold_bits_np(value, ib)
            scrambled = (
                (recent & np.uint64(mask(min(length, 64))))
                ^ np.uint64(t + 1)
            ) * np.uint64(_TAG_SCRAMBLE)
            value = (
                pca ^ direction_folds(direction, pushes, length, tb - 1)
                ^ fold_bits_np(scrambled, tb)
            )
            tags[t] = fold_bits_np(value, tb)
        return indices, tags

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, pc: int, hashes: Hashes) -> TagePrediction:
        """Predict the branch at ``pc`` whose table hashes are
        ``hashes`` (one row of :meth:`hash_columns`)."""
        indices, tags = hashes
        table_tags = self._tags
        provider = -1
        alt_provider = -1
        for t in self._probe_order:
            if table_tags[t][indices[t]] == tags[t]:
                if provider == -1:
                    provider = t
                else:
                    alt_provider = t
                    break

        if provider < 0:
            base_taken = self._base.predict(pc)
            return TagePrediction(
                base_taken, -1, 0, False, base_taken, -1, 0, indices, tags
            )
        mid = self._counter_mid
        counters = self._counters
        if alt_provider >= 0:
            alt_index = indices[alt_provider]
            alt_taken = counters[alt_provider][alt_index] >= mid
        else:
            alt_taken = self._base.predict(pc)
            alt_index = 0
        index = indices[provider]
        counter = counters[provider][index]
        weak = self._useful[provider][index] == 0 and (
            counter == mid or counter == mid - 1
        )
        taken = (
            alt_taken if weak and self._use_alt_on_na >= 8
            else counter >= mid
        )
        return TagePrediction(
            taken, provider, index, weak, alt_taken, alt_provider,
            alt_index, indices, tags,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, pc: int, taken: bool, ctx: TagePrediction) -> None:
        cfg = self.config
        provider = ctx.provider

        if provider >= 0:
            index = ctx.provider_index
            counters = self._counters[provider]
            counter = counters[index]
            provider_taken = counter >= self._counter_mid
            # use_alt_on_na bookkeeping: when the provider was weak, learn
            # whether the provider or the alternate was the better choice.
            if ctx.provider_weak and provider_taken != ctx.alt_taken:
                if provider_taken == taken:
                    if self._use_alt_on_na > 0:
                        self._use_alt_on_na -= 1
                elif self._use_alt_on_na < 15:
                    self._use_alt_on_na += 1
            if taken:
                if counter < self._counter_max:
                    counters[index] = counter + 1
            elif counter > 0:
                counters[index] = counter - 1
            # Usefulness: provider was right where the alternate was wrong.
            useful = self._useful[provider]
            if provider_taken == taken and ctx.alt_taken != taken:
                if useful[index] < self._useful_max:
                    useful[index] += 1
            elif provider_taken != taken and ctx.alt_taken == taken:
                if useful[index] > 0:
                    useful[index] -= 1
            # Train the alternate/base when the provider entry is new.
            if ctx.provider_weak:
                if ctx.alt_provider >= 0:
                    counters = self._counters[ctx.alt_provider]
                    counter = counters[ctx.alt_index]
                    if taken:
                        if counter < self._counter_max:
                            counters[ctx.alt_index] = counter + 1
                    elif counter > 0:
                        counters[ctx.alt_index] = counter - 1
                else:
                    self._base.train(pc, taken)
        else:
            self._base.train(pc, taken)

        if ctx.taken != taken and provider < cfg.num_tables - 1:
            self._allocate(taken, ctx)

        self._updates_until_aging -= 1
        if self._updates_until_aging <= 0:
            for useful in self._useful:
                useful[:] = [u >> 1 for u in useful]
            self._updates_until_aging = cfg.aging_period

    def _allocate(self, taken: bool, ctx: TagePrediction) -> None:
        """Allocate an entry in a (randomly biased) longer-history table."""
        indices = ctx.indices
        useful = self._useful
        span = range(ctx.provider + 1, self.config.num_tables)
        candidates = [t for t in span if useful[t][indices[t]] == 0]
        if not candidates:
            # Nothing free: decay usefulness along the allocation path so
            # future allocations can succeed (anti-ping-pong rule).
            for t in span:
                useful[t][indices[t]] -= 1
            return
        # Prefer shorter-history candidates with probability 1/2 each,
        # the standard geometric allocation bias.
        chosen = candidates[0]
        for candidate in candidates[1:]:
            if self._rng.coin(0.5):
                break
            chosen = candidate
        index = indices[chosen]
        self._tags[chosen][index] = ctx.tags[chosen]
        self._counters[chosen][index] = (
            self._counter_mid if taken else self._counter_mid - 1
        )
        useful[chosen][index] = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = cfg.tag_bits + cfg.counter_bits + cfg.useful_bits
        return (
            cfg.num_tables * cfg.entries_per_table * entry_bits
            + self._base.storage_bits()
        )
