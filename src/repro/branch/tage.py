"""TAGE conditional branch predictor (Seznec & Michaud).

A base bimodal table plus ``num_tables`` partially-tagged tables indexed
with geometrically increasing direction-history lengths.  The prediction
comes from the longest matching table (the *provider*); the next longest
match (or the base table) is the *alternate*.  Allocation on mispredict,
2-bit usefulness counters with periodic graceful aging, and the
``use_alt_on_na`` heuristic for newly-allocated entries are all modeled,
following the canonical description.

The pipeline calls :meth:`TagePredictor.predict` at fetch and passes the
returned context back to :meth:`TagePredictor.train` when the branch
resolves, mirroring the real prediction-to-update delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import bit_length_for, fold_bits, mask
from repro.common.hashing import mix64
from repro.common.rng import DeterministicRng
from repro.branch.bimodal import BimodalPredictor
from repro.branch.history import HistorySet, HistorySnapshot

_MASK64 = (1 << 64) - 1
_TAG_SCRAMBLE = 0x9E3779B97F4A7C15


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

    def history_lengths(self) -> tuple[int, ...]:
        """Geometric history series L(1)..L(N)."""
        if self.num_tables == 1:
            return (self.min_history,)
        ratio = (self.max_history / self.min_history) ** (
            1.0 / (self.num_tables - 1)
        )
        lengths = []
        for i in range(self.num_tables):
            length = int(round(self.min_history * ratio**i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return tuple(lengths)


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


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.counter = 0  # centered: taken if >= midpoint
        self.useful = 0


class TagePredictor:
    """The TAGE direction predictor."""

    def __init__(self, config: TageConfig | None = None,
                 rng: DeterministicRng | None = None) -> None:
        self.config = config or TageConfig()
        self._rng = rng or DeterministicRng(0, "tage")
        cfg = self.config
        self._lengths = cfg.history_lengths()
        self._index_bits = bit_length_for(cfg.entries_per_table)
        self._tables: list[list[_TaggedEntry]] = [
            [_TaggedEntry() for _ in range(cfg.entries_per_table)]
            for _ in range(cfg.num_tables)
        ]
        self._base = BimodalPredictor(cfg.base_entries)
        self._counter_max = (1 << cfg.counter_bits) - 1
        self._counter_mid = 1 << (cfg.counter_bits - 1)
        self._useful_max = (1 << cfg.useful_bits) - 1
        # Hot-path constants: per-table history masks and hash salts
        # (fixed rewiring in hardware; recomputing mix64 per prediction
        # dominated the profile).
        self._history_masks = tuple(mask(L) for L in self._lengths)
        index_mask = mask(self._index_bits)
        self._index_salts = tuple(
            mix64(t + 1) & index_mask for t in range(cfg.num_tables)
        )
        # USE_ALT_ON_NA: 4-bit signed counter deciding whether weak,
        # newly allocated providers should defer to the alternate.
        self._use_alt_on_na = 8
        self._updates_until_aging = cfg.aging_period
        # Incremental-folding fast path, armed by bind_history().  The
        # tag's multiplicative scramble operates mod 2**64, so only the
        # low min(length, 64) history bits can affect it.
        self._histories: HistorySet | None = None
        self._idx_dir_cells: list[list[int]] = []
        self._tag_dir_cells: list[list[int]] = []
        self._path_cell: list[int] = [0]
        self._tag_hist_masks64 = tuple(
            mask(min(L, 64)) for L in self._lengths
        )

    def bind_history(self, histories: HistorySet) -> None:
        """Attach live folded-history registers for O(1) index/tag hashes.

        After binding, :meth:`predict` calls that pass ``histories``
        itself (rather than a detached snapshot) read the incrementally
        maintained folded registers instead of re-folding the raw
        history per probe.  Results are bit-identical either way.
        """
        self._histories = histories
        ib = self._index_bits
        tag_width = self.config.tag_bits - 1
        self._idx_dir_cells = [
            histories.fold_cell(histories.register_direction_fold(L, ib))
            for L in self._lengths
        ]
        self._path_cell = histories.fold_cell(histories.register_path_fold(ib))
        self._tag_dir_cells = [
            histories.fold_cell(
                histories.register_direction_fold(L, tag_width)
            )
            for L in self._lengths
        ]

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index(self, pc: int, table: int, snap: HistorySnapshot) -> int:
        bits = self._index_bits
        history = snap.direction & self._history_masks[table]
        value = (pc >> 2) ^ (pc >> (2 + bits)) ^ fold_bits(history, bits)
        value ^= fold_bits(snap.path, bits) ^ self._index_salts[table]
        return fold_bits(value, bits)

    def _tag(self, pc: int, table: int, snap: HistorySnapshot) -> int:
        bits = self.config.tag_bits
        history = snap.direction & self._history_masks[table]
        scrambled = ((history ^ (table + 1)) * _TAG_SCRAMBLE) & _MASK64
        value = (pc >> 2) ^ fold_bits(history, bits - 1) ^ fold_bits(
            scrambled, bits
        )
        return fold_bits(value, bits)

    def _hashes(
        self, pc: int, snap: HistorySnapshot | HistorySet
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """All table indices and tags for ``pc`` under ``snap``."""
        n = self.config.num_tables
        if snap is not self._histories:
            # Detached snapshot (or unbound predictor): reference path.
            return (
                tuple(self._index(pc, t, snap) for t in range(n)),
                tuple(self._tag(pc, t, snap) for t in range(n)),
            )
        # Fast path: fold registers are maintained incrementally, so each
        # hash is a handful of XORs plus a short wrap of the PC bits.
        ib = self._index_bits
        imask = (1 << ib) - 1
        tb = self.config.tag_bits
        tmask = (1 << tb) - 1
        pcx = (pc >> 2) ^ (pc >> (2 + ib))
        pca = pc >> 2
        path_fold = self._path_cell[0]
        salts = self._index_salts
        direction = snap.direction
        idx_dir_cells = self._idx_dir_cells
        tag_dir_cells = self._tag_dir_cells
        tag_hist_masks = self._tag_hist_masks64
        indices = []
        tags = []
        idx_append = indices.append
        tag_append = tags.append
        for t in range(n):
            v = pcx ^ idx_dir_cells[t][0] ^ path_fold ^ salts[t]
            while v > imask:
                v = (v & imask) ^ (v >> ib)
            idx_append(v)
            scrambled = (
                (direction & tag_hist_masks[t]) ^ (t + 1)
            ) * _TAG_SCRAMBLE & _MASK64
            v = pca ^ tag_dir_cells[t][0]
            while scrambled:
                v ^= scrambled & tmask
                scrambled >>= tb
            while v > tmask:
                v = (v & tmask) ^ (v >> tb)
            tag_append(v)
        return tuple(indices), tuple(tags)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(
        self, pc: int, snap: HistorySnapshot | HistorySet
    ) -> TagePrediction:
        cfg = self.config
        indices, tags = self._hashes(pc, snap)

        provider = -1
        alt_provider = -1
        for t in range(cfg.num_tables - 1, -1, -1):
            if self._tables[t][indices[t]].tag == tags[t]:
                if provider == -1:
                    provider = t
                else:
                    alt_provider = t
                    break

        base_taken = self._base.predict(pc)
        if alt_provider >= 0:
            alt_entry = self._tables[alt_provider][indices[alt_provider]]
            alt_taken = alt_entry.counter >= self._counter_mid
            alt_index = indices[alt_provider]
        else:
            alt_taken = base_taken
            alt_index = 0

        if provider >= 0:
            entry = self._tables[provider][indices[provider]]
            provider_taken = entry.counter >= self._counter_mid
            weak = entry.useful == 0 and entry.counter in (
                self._counter_mid - 1, self._counter_mid
            )
            taken = (
                alt_taken
                if weak and self._use_alt_on_na >= 8
                else provider_taken
            )
            return TagePrediction(
                taken=taken,
                provider=provider,
                provider_index=indices[provider],
                provider_weak=weak,
                alt_taken=alt_taken,
                alt_provider=alt_provider,
                alt_index=alt_index,
                indices=indices,
                tags=tags,
            )
        return TagePrediction(
            taken=base_taken,
            provider=-1,
            provider_index=0,
            provider_weak=False,
            alt_taken=base_taken,
            alt_provider=-1,
            alt_index=0,
            indices=indices,
            tags=tags,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, pc: int, taken: bool, ctx: TagePrediction) -> None:
        cfg = self.config
        mispredicted = ctx.taken != taken

        if ctx.provider >= 0:
            entry = self._tables[ctx.provider][ctx.provider_index]
            provider_taken = entry.counter >= self._counter_mid
            # use_alt_on_na bookkeeping: when the provider was weak, learn
            # whether the provider or the alternate was the better choice.
            if ctx.provider_weak and provider_taken != ctx.alt_taken:
                if provider_taken == taken:
                    self._use_alt_on_na = max(0, self._use_alt_on_na - 1)
                else:
                    self._use_alt_on_na = min(15, self._use_alt_on_na + 1)
            self._bump(entry, taken)
            # Usefulness: provider was right where the alternate was wrong.
            if provider_taken == taken and ctx.alt_taken != taken:
                entry.useful = min(self._useful_max, entry.useful + 1)
            elif provider_taken != taken and ctx.alt_taken == taken:
                entry.useful = max(0, entry.useful - 1)
            # Train the alternate/base when the provider entry is new.
            if ctx.provider_weak:
                if ctx.alt_provider >= 0:
                    self._bump(
                        self._tables[ctx.alt_provider][ctx.alt_index], taken
                    )
                else:
                    self._base.train(pc, taken)
        else:
            self._base.train(pc, taken)

        if mispredicted and ctx.provider < cfg.num_tables - 1:
            self._allocate(taken, ctx)

        self._updates_until_aging -= 1
        if self._updates_until_aging <= 0:
            self._age_useful_counters()
            self._updates_until_aging = cfg.aging_period

    def _bump(self, entry: _TaggedEntry, taken: bool) -> None:
        if taken:
            if entry.counter < self._counter_max:
                entry.counter += 1
        elif entry.counter > 0:
            entry.counter -= 1

    def _allocate(self, taken: bool, ctx: TagePrediction) -> None:
        """Allocate an entry in a (randomly biased) longer-history table."""
        start = ctx.provider + 1
        candidates = [
            t
            for t in range(start, self.config.num_tables)
            if self._tables[t][ctx.indices[t]].useful == 0
        ]
        if not candidates:
            # Nothing free: decay usefulness along the allocation path so
            # future allocations can succeed (anti-ping-pong rule).
            for t in range(start, self.config.num_tables):
                entry = self._tables[t][ctx.indices[t]]
                entry.useful = max(0, entry.useful - 1)
            return
        # Prefer shorter-history candidates with probability 1/2 each,
        # the standard geometric allocation bias.
        chosen = candidates[0]
        for candidate in candidates[1:]:
            if self._rng.coin(0.5):
                break
            chosen = candidate
        entry = self._tables[chosen][ctx.indices[chosen]]
        entry.tag = ctx.tags[chosen]
        entry.counter = self._counter_mid if taken else self._counter_mid - 1
        entry.useful = 0

    def _age_useful_counters(self) -> None:
        for table in self._tables:
            for entry in table:
                entry.useful >>= 1

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
