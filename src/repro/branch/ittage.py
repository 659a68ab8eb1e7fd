"""ITTAGE indirect-target predictor (Seznec).

Same tagged-geometric structure as TAGE, but entries store a predicted
*target* plus a 2-bit hysteresis counter instead of a direction counter.
The base component is a PC-indexed target cache.  As in
:mod:`repro.branch.tage`, a whole trace's table hashes come from
:meth:`IttagePredictor.hash_columns` and the tables are flat per-field
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bits import bit_length_for, fold_bits_np, mask
from repro.common.hashing import mix64, mix64_np, pc_index
from repro.common.rng import DeterministicRng
from repro.branch.history import direction_folds
from repro.branch.tage import Hashes, check_geometry, geometric_lengths


@dataclass(frozen=True)
class IttageConfig:
    """Geometry approximating the paper's 32KB ITTAGE."""

    num_tables: int = 4
    entries_per_table: int = 512
    base_entries: int = 2048
    tag_bits: int = 11
    min_history: int = 4
    max_history: int = 64

    def __post_init__(self) -> None:
        check_geometry(self, min_tag_bits=1)

    def history_lengths(self) -> tuple[int, ...]:
        return geometric_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass(slots=True)
class IttagePrediction:
    """Prediction context returned by ``predict`` and consumed by ``train``."""

    target: int
    provider: int
    provider_index: int
    indices: tuple[int, ...]
    tags: tuple[int, ...]


class IttagePredictor:
    """Indirect branch target predictor."""

    def __init__(self, config: IttageConfig | None = None,
                 rng: DeterministicRng | None = None) -> None:
        self.config = config or IttageConfig()
        self._rng = rng or DeterministicRng(0, "ittage")
        cfg = self.config
        self._lengths = cfg.history_lengths()
        self._index_bits = bit_length_for(cfg.entries_per_table)
        entries = cfg.entries_per_table
        # One column per entry field per table; confidence is a 2-bit
        # hysteresis counter.
        self._tags = [[0] * entries for _ in range(cfg.num_tables)]
        self._targets = [[0] * entries for _ in range(cfg.num_tables)]
        self._confidence = [[0] * entries for _ in range(cfg.num_tables)]
        self._useful = [[0] * entries for _ in range(cfg.num_tables)]
        self._probe_order = tuple(range(cfg.num_tables - 1, -1, -1))
        self._base_index_bits = bit_length_for(cfg.base_entries)
        self._base_targets = [0] * cfg.base_entries
        self._index_salts = tuple(
            mix64(t + 17) & mask(self._index_bits)
            for t in range(cfg.num_tables)
        )

    def hash_columns(
        self,
        pc: np.ndarray,
        direction: np.ndarray,
        pushes: np.ndarray,
        path: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every table's index and tag for a column of branches; the
        inputs and result are those of
        :meth:`repro.branch.tage.TagePredictor.hash_columns`.
        ``mix64`` truncates its input to 64 bits, so the tag reads only
        the low ``min(length, 64)`` history bits."""
        cfg = self.config
        ib = self._index_bits
        pca = pc >> np.uint64(2)
        path_fold = fold_bits_np(path, ib)
        recent = direction[pushes]
        indices = np.empty((cfg.num_tables, len(pc)), dtype=np.uint64)
        tags = np.empty_like(indices)
        for t, length in enumerate(self._lengths):
            value = (
                pca ^ direction_folds(direction, pushes, length, ib)
                ^ path_fold ^ np.uint64(self._index_salts[t])
            )
            indices[t] = fold_bits_np(value, ib)
            mixed = mix64_np(
                (recent & np.uint64(mask(min(length, 64))))
                ^ np.uint64(t + 101)
            )
            tags[t] = fold_bits_np(pca ^ mixed, cfg.tag_bits)
        return indices, tags

    def predict(self, pc: int, hashes: Hashes) -> IttagePrediction:
        """Predict the target of the branch at ``pc`` whose table
        hashes are ``hashes`` (one row of :meth:`hash_columns`)."""
        indices, tags = hashes
        table_tags = self._tags
        for t in self._probe_order:
            index = indices[t]
            if table_tags[t][index] == tags[t]:
                return IttagePrediction(
                    self._targets[t][index], t, index, indices, tags
                )
        base_target = self._base_targets[pc_index(pc, self._base_index_bits)]
        return IttagePrediction(base_target, -1, 0, indices, tags)

    def train(self, pc: int, target: int, ctx: IttagePrediction) -> None:
        correct = ctx.target == target
        provider = ctx.provider
        if provider >= 0:
            index = ctx.provider_index
            targets = self._targets[provider]
            confidence = self._confidence[provider]
            if targets[index] == target:
                if confidence[index] < 3:
                    confidence[index] += 1
                useful = self._useful[provider]
                if correct and useful[index] < 3:
                    useful[index] += 1
            elif confidence[index] > 0:
                confidence[index] -= 1
            else:
                targets[index] = target
                confidence[index] = 1
                self._useful[provider][index] = 0
        else:
            self._base_targets[pc_index(pc, self._base_index_bits)] = target

        if not correct and provider < self.config.num_tables - 1:
            self._allocate(target, ctx)

    def _allocate(self, target: int, ctx: IttagePrediction) -> None:
        for t in range(ctx.provider + 1, self.config.num_tables):
            index = ctx.indices[t]
            useful = self._useful[t]
            if useful[index] == 0:
                self._tags[t][index] = ctx.tags[t]
                self._targets[t][index] = target
                self._confidence[t][index] = 1
                return
            if self._rng.coin(0.25):
                useful[index] -= 1

    def storage_bits(self) -> int:
        cfg = self.config
        entry_bits = cfg.tag_bits + 49 + 2 + 2  # tag + target + conf + useful
        return cfg.num_tables * cfg.entries_per_table * entry_bits + (
            cfg.base_entries * 49
        )
