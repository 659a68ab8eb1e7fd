"""ITTAGE indirect-target predictor (Seznec).

Same tagged-geometric structure as TAGE, but entries store a predicted
*target* plus a 2-bit hysteresis counter instead of a direction counter.
The base component is a PC-indexed target cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import bit_length_for, fold_bits, mask
from repro.common.hashing import mix64, pc_index
from repro.common.rng import DeterministicRng
from repro.branch.history import HistorySet, HistorySnapshot


@dataclass(frozen=True)
class IttageConfig:
    """Geometry approximating the paper's 32KB ITTAGE."""

    num_tables: int = 4
    entries_per_table: int = 512
    base_entries: int = 2048
    tag_bits: int = 11
    min_history: int = 4
    max_history: int = 64

    def history_lengths(self) -> tuple[int, ...]:
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
class IttagePrediction:
    """Prediction context returned by ``predict`` and consumed by ``train``."""

    target: int
    provider: int
    provider_index: int
    indices: tuple[int, ...]
    tags: tuple[int, ...]


class _Entry:
    __slots__ = ("tag", "target", "confidence", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.target = 0
        self.confidence = 0  # 2-bit hysteresis
        self.useful = 0


class IttagePredictor:
    """Indirect branch target predictor."""

    def __init__(self, config: IttageConfig | None = None,
                 rng: DeterministicRng | None = None) -> None:
        self.config = config or IttageConfig()
        self._rng = rng or DeterministicRng(0, "ittage")
        cfg = self.config
        self._lengths = cfg.history_lengths()
        self._index_bits = bit_length_for(cfg.entries_per_table)
        self._tables = [
            [_Entry() for _ in range(cfg.entries_per_table)]
            for _ in range(cfg.num_tables)
        ]
        self._base_index_bits = bit_length_for(cfg.base_entries)
        self._base_targets = [0] * cfg.base_entries
        # Hot-path constants + the incremental-folding fast path (armed
        # by bind_history).  mix64(history ^ salt) truncates to 64 bits,
        # so only the low min(length, 64) history bits reach the tag.
        self._history_masks = tuple(mask(L) for L in self._lengths)
        self._index_salts = tuple(
            mix64(t + 17) & mask(self._index_bits)
            for t in range(cfg.num_tables)
        )
        self._tag_hist_masks64 = tuple(
            mask(min(L, 64)) for L in self._lengths
        )
        self._histories: HistorySet | None = None
        self._idx_dir_cells: list[list[int]] = []
        self._path_cell: list[int] = [0]

    def bind_history(self, histories: HistorySet) -> None:
        """Attach live folded registers; see TagePredictor.bind_history."""
        self._histories = histories
        ib = self._index_bits
        self._idx_dir_cells = [
            histories.fold_cell(histories.register_direction_fold(L, ib))
            for L in self._lengths
        ]
        self._path_cell = histories.fold_cell(histories.register_path_fold(ib))

    def _index(self, pc: int, table: int, snap: HistorySnapshot) -> int:
        bits = self._index_bits
        history = snap.direction & self._history_masks[table]
        value = (pc >> 2) ^ fold_bits(history, bits)
        value ^= fold_bits(snap.path, bits) ^ self._index_salts[table]
        return fold_bits(value, bits)

    def _tag(self, pc: int, table: int, snap: HistorySnapshot) -> int:
        bits = self.config.tag_bits
        history = snap.direction & self._history_masks[table]
        return fold_bits((pc >> 2) ^ mix64(history ^ (table + 101)), bits)

    def _hashes(
        self, pc: int, snap: HistorySnapshot | HistorySet
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.config.num_tables
        if snap is not self._histories:
            return (
                tuple(self._index(pc, t, snap) for t in range(n)),
                tuple(self._tag(pc, t, snap) for t in range(n)),
            )
        ib = self._index_bits
        imask = (1 << ib) - 1
        tb = self.config.tag_bits
        tmask = (1 << tb) - 1
        pca = pc >> 2
        path_fold = self._path_cell[0]
        direction = snap.direction
        indices = []
        tags = []
        for t in range(n):
            v = pca ^ self._idx_dir_cells[t][0] ^ path_fold \
                ^ self._index_salts[t]
            while v > imask:
                v = (v & imask) ^ (v >> ib)
            indices.append(v)
            v = pca ^ mix64(
                (direction & self._tag_hist_masks64[t]) ^ (t + 101)
            )
            while v > tmask:
                v = (v & tmask) ^ (v >> tb)
            tags.append(v)
        return tuple(indices), tuple(tags)

    def predict(
        self, pc: int, snap: HistorySnapshot | HistorySet
    ) -> IttagePrediction:
        cfg = self.config
        indices, tags = self._hashes(pc, snap)
        for t in range(cfg.num_tables - 1, -1, -1):
            entry = self._tables[t][indices[t]]
            if entry.tag == tags[t]:
                return IttagePrediction(
                    target=entry.target,
                    provider=t,
                    provider_index=indices[t],
                    indices=indices,
                    tags=tags,
                )
        base_target = self._base_targets[pc_index(pc, self._base_index_bits)]
        return IttagePrediction(
            target=base_target, provider=-1, provider_index=0,
            indices=indices, tags=tags,
        )

    def train(self, pc: int, target: int, ctx: IttagePrediction) -> None:
        cfg = self.config
        correct = ctx.target == target
        if ctx.provider >= 0:
            entry = self._tables[ctx.provider][ctx.provider_index]
            if entry.target == target:
                entry.confidence = min(3, entry.confidence + 1)
                entry.useful = min(3, entry.useful + 1) if correct else entry.useful
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.target = target
                entry.confidence = 1
                entry.useful = 0
        else:
            self._base_targets[pc_index(pc, self._base_index_bits)] = target

        if not correct and ctx.provider < cfg.num_tables - 1:
            self._allocate(pc, target, ctx)

    def _allocate(self, pc: int, target: int, ctx: IttagePrediction) -> None:
        start = ctx.provider + 1
        for t in range(start, self.config.num_tables):
            entry = self._tables[t][ctx.indices[t]]
            if entry.useful == 0:
                entry.tag = ctx.tags[t]
                entry.target = target
                entry.confidence = 1
                return
            if self._rng.coin(0.25):
                entry.useful -= 1

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = cfg.tag_bits + 49 + 2 + 2  # tag + target + conf + useful
        return cfg.num_tables * cfg.entries_per_table * entry_bits + (
            cfg.base_entries * 49
        )
