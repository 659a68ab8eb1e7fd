"""Whole-trace history folds and branch hashes against the scalar reference.

TAGE and ITTAGE hash folded histories,
``fold_bits(history & mask(length), width)``.  The simulator computes
them for a whole trace at once: :func:`repro.branch.history.shift_states`
gives a register's state after every push and
:func:`repro.branch.history.direction_folds` folds the direction
register from those states.  Random event sequences driven through a
:class:`HistorySet` (the raw registers) must give the same states and
folds, and the TAGE/ITTAGE column kernels must give the hashes of the
scalar reference in ``tests/oracles/branch.py``.  E-VTAGE hashes the
raw registers itself and is held to the per-table ``fold_bits``
reference here; CVP and CAP are held to their column kernels in
``tests/test_hash_columns.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.branch.history import (
    LOAD_PATH_BITS,
    MAX_DIRECTION_BITS,
    PATH_BITS,
    HistorySet,
    direction_folds,
    path_contributions,
    shift_states,
)
from repro.branch.ittage import IttagePredictor
from repro.branch.tage import TagePredictor
from repro.common.bits import fold_bits, fold_bits_np, mask
from repro.common.hashing import mix64, pc_index
from repro.eves.evtage import _TAG_BITS, _TAG_SCRAMBLE, EVtagePredictor

from oracles.branch import ittage_hashes, tage_hashes

#: A deliberately awkward mix: widths larger than, equal to, dividing,
#: and coprime to the history lengths, including width 1.
FOLD_SPECS = [
    ("direction", 5, 3),
    ("direction", 13, 13),
    ("direction", 32, 7),
    ("direction", 64, 10),
    ("direction", 130, 11),
    ("direction", MAX_DIRECTION_BITS, 9),
    ("direction", MAX_DIRECTION_BITS + 40, 9),  # clamped to the register
    ("direction", 6, 8),  # width > length
    ("direction", 17, 1),  # degenerate width
    ("path", PATH_BITS, 9),
    ("path", PATH_BITS, 10),
    ("path", PATH_BITS, 5),
]


class _Recorder:
    """A :class:`HistorySet` that also logs its pushes, so the
    whole-trace states can be rebuilt from the log."""

    def __init__(self) -> None:
        self.h = HistorySet()
        self.taken: list[int] = []
        self.branch_pcs: list[int] = []
        self.memory_pcs: list[int] = []

    def events(self, rng: random.Random, count: int) -> None:
        for _ in range(count):
            pc = rng.getrandbits(30) & ~0b11
            roll = rng.random()
            if roll < 0.45:
                taken = rng.random() < 0.5
                self.h.push_branch(pc, taken)
                self.taken.append(int(taken))
                self.branch_pcs.append(pc)
            elif roll < 0.6:
                self.h.push_unconditional(pc)
                self.branch_pcs.append(pc)
            else:
                self.h.push_memory(pc)
                self.memory_pcs.append(pc)

    def states(self):
        """The three registers' states after every push."""
        return (
            shift_states(np.array(self.taken, dtype=np.uint64), 1, 64),
            shift_states(path_contributions(
                np.array(self.branch_pcs, dtype=np.uint64)), 2, PATH_BITS),
            shift_states(path_contributions(
                np.array(self.memory_pcs, dtype=np.uint64)), 2,
                LOAD_PATH_BITS),
        )


def _queries(seed: int, rounds: int = 60):
    """Random event runs; after each, the raw registers and push counts."""
    rng = random.Random(seed)
    rec = _Recorder()
    queries = []
    for _ in range(rounds):
        rec.events(rng, rng.randrange(1, 25))
        queries.append((
            rng.getrandbits(30) & ~0b11, rec.h.direction, rec.h.path,
            rec.h.load_path, len(rec.taken), len(rec.branch_pcs),
            len(rec.memory_pcs),
        ))
    return rec, queries


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_folds_match_oracle_under_random_events(self, seed):
        rec, queries = _queries(seed)
        direction, path, load_path = rec.states()
        assert len(rec.taken) > MAX_DIRECTION_BITS
        _, d, p, lp, conds, branches, memory = zip(*queries)
        pushes = np.array(conds, dtype=np.int64)
        assert direction[pushes].tolist() == [v & mask(64) for v in d]
        assert path[list(branches)].tolist() == list(p)
        assert load_path[list(memory)].tolist() == list(lp)
        for kind, length, width in FOLD_SPECS:
            if kind == "direction":
                got = direction_folds(direction, pushes, length, width)
                want = [fold_bits(v & mask(length), width) for v in d]
            else:
                got = fold_bits_np(path[list(branches)], width)
                want = [fold_bits(v, width) for v in p]
            assert got.tolist() == want, (kind, length, width)

    def test_fold_is_xor_of_lagged_states(self):
        """The identity the column kernel rests on: chunk ``c`` of a
        folded history is the ``width``-bit register state ``c*width``
        pushes earlier."""
        rng = random.Random(7)
        for _ in range(200):
            pushes = rng.randrange(0, 300)
            bits = [rng.getrandbits(1) for _ in range(pushes)]
            states = [0]
            for b in bits:
                states.append(
                    ((states[-1] << 1) | b) & mask(MAX_DIRECTION_BITS)
                )
            length = rng.randrange(1, 200)
            width = rng.randrange(1, 16)
            lagged = 0
            for lag in range(0, length, width):
                state = states[pushes - lag] if pushes >= lag else 0
                lagged ^= state & mask(min(width, length - lag))
            assert lagged == fold_bits(states[-1] & mask(length), width)


class TestPredictorHashEquivalence:
    """TAGE/ITTAGE column hashes, and E-VTAGE's one-pass scalar hashes
    of the raw registers, equal their fold_bits-based references."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tage_indices_and_tags_bit_identical(self, seed):
        tage = TagePredictor()
        rec, queries = _queries(1000 + seed, rounds=150)
        direction, path, _ = rec.states()
        pcs, d, p, _, conds, branches, _ = zip(*queries)
        indices, tags = tage.hash_columns(
            np.array(pcs, dtype=np.uint64), direction,
            np.array(conds, dtype=np.int64), path[list(branches)],
        )
        rows = list(zip(zip(*indices.tolist()), zip(*tags.tolist())))
        assert rows == [
            tage_hashes(tage, pc, dv, pv) for pc, dv, pv in zip(pcs, d, p)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_ittage_indices_and_tags_bit_identical(self, seed):
        ittage = IttagePredictor()
        rec, queries = _queries(2000 + seed, rounds=150)
        direction, path, _ = rec.states()
        pcs, d, p, _, conds, branches, _ = zip(*queries)
        indices, tags = ittage.hash_columns(
            np.array(pcs, dtype=np.uint64), direction,
            np.array(conds, dtype=np.int64), path[list(branches)],
        )
        rows = list(zip(zip(*indices.tolist()), zip(*tags.tolist())))
        assert rows == [
            ittage_hashes(ittage, pc, dv, pv)
            for pc, dv, pv in zip(pcs, d, p)
        ]

    def test_evtage_hashes_bit_identical(self):
        rng = random.Random(4242)
        evtage = EVtagePredictor()
        bits = evtage._index_bits
        rec = _Recorder()
        h = rec.h
        for _ in range(150):
            rec.events(rng, rng.randrange(1, 8))
            pc = rng.getrandbits(30) & ~0b11
            pairs = []
            for table, length in enumerate(evtage._lengths):
                history = h.direction & mask(length)
                index = fold_bits(
                    (pc >> 2) ^ fold_bits(history, bits)
                    ^ fold_bits(h.path, bits)
                    ^ (mix64(table + 31) & mask(bits)),
                    bits,
                )
                scrambled = (
                    (history + table * 0x51) * _TAG_SCRAMBLE & mask(64)
                )
                pairs.append(
                    (index, fold_bits((pc >> 2) ^ scrambled, _TAG_BITS))
                )
            assert evtage._hashes(pc, h.direction, h.path) == (
                pc_index(pc, evtage._base_bits), tuple(pairs)
            )
