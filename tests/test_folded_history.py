"""Bit-exactness of the incrementally maintained folded registers.

Every folded register in :class:`repro.branch.history.HistorySet` must
equal ``fold_bits(history & mask(length), width)`` -- the per-probe
computation, kept in :mod:`repro.common.bits` as the reference oracle
-- after *any* sequence of pushes, snapshots, and restores.  The folds
are private to the branch unit: TAGE and ITTAGE read them, and their
hashes must match the reference computed from a detached snapshot.
Value predictors hash the raw registers: CVP and CAP are held to their
column kernels in ``tests/test_hash_columns.py``, E-VTAGE to the
per-table ``fold_bits`` reference here.
"""

from __future__ import annotations

import random

import pytest

from repro.branch.history import MAX_DIRECTION_BITS, PATH_BITS, HistorySet
from repro.branch.ittage import IttagePredictor
from repro.branch.tage import TagePredictor
from repro.common.bits import fold_bits, mask
from repro.common.hashing import csr_push, csr_push2, mix64, pc_index
from repro.eves.evtage import _TAG_BITS, _TAG_SCRAMBLE, EVtagePredictor

#: A deliberately awkward mix: widths larger than, equal to, dividing,
#: and coprime to the history lengths, including width 1.
FOLD_SPECS = [
    ("direction", 5, 3),
    ("direction", 13, 13),
    ("direction", 32, 7),
    ("direction", 64, 10),
    ("direction", 130, 11),
    ("direction", MAX_DIRECTION_BITS, 9),
    ("direction", 6, 8),  # width > length
    ("direction", 17, 1),  # degenerate width
    ("path", PATH_BITS, 9),
    ("path", PATH_BITS, 10),
    ("path", PATH_BITS, 5),
]


def _register_all(h: HistorySet) -> dict[tuple, int]:
    slots = {}
    for kind, length, width in FOLD_SPECS:
        if kind == "direction":
            slots[(kind, length, width)] = h.register_direction_fold(
                length, width
            )
        else:
            slots[(kind, length, width)] = h.register_path_fold(width)
    return slots


def _assert_oracle(h: HistorySet, slots: dict[tuple, int]) -> None:
    """Every registered fold equals the fold_bits reference."""
    for (kind, length, width), slot in slots.items():
        source = h.direction if kind == "direction" else h.path
        expected = fold_bits(source & mask(length), width)
        assert h.fold_cell(slot)[0] == expected, (kind, length, width)


def _random_events(h: HistorySet, rng: random.Random, count: int) -> None:
    for _ in range(count):
        pc = rng.getrandbits(30) & ~0b11
        roll = rng.random()
        if roll < 0.45:
            h.push_branch(pc, rng.random() < 0.5)
        elif roll < 0.6:
            h.push_unconditional(pc)
        else:
            h.push_memory(pc)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_folds_match_oracle_under_random_events(self, seed):
        rng = random.Random(seed)
        h = HistorySet()
        slots = _register_all(h)
        for _ in range(40):
            _random_events(h, rng, rng.randrange(1, 25))
            _assert_oracle(h, slots)

    def test_registration_on_warm_history_seeds_exactly(self):
        """Folds registered mid-run start bit-exact (seeded, not zero)."""
        rng = random.Random(99)
        h = HistorySet()
        _random_events(h, rng, 200)
        slots = _register_all(h)
        _assert_oracle(h, slots)
        _random_events(h, rng, 50)
        _assert_oracle(h, slots)

    def test_registration_is_idempotent(self):
        h = HistorySet()
        a = h.register_direction_fold(32, 7)
        b = h.register_direction_fold(32, 7)
        assert a == b
        assert h.register_path_fold(9) == h.register_path_fold(9)

    def test_csr_reference_steps_match_oracle(self):
        """The readable csr_push/csr_push2 forms equal fold_bits too."""
        rng = random.Random(7)
        for _ in range(200):
            length = rng.randrange(2, 80)
            width = rng.randrange(1, 16)
            history = rng.getrandbits(length)
            folded = fold_bits(history, width)
            bit = rng.getrandbits(1)
            out = (history >> (length - 1)) & 1
            new_history = ((history << 1) | bit) & mask(length)
            assert csr_push(folded, length, width, bit, out) == fold_bits(
                new_history, width
            )
            two = rng.getrandbits(2)
            out2 = (history >> (length - 2)) & 0b11
            shifted = ((history << 2) | two) & mask(length)
            assert csr_push2(folded, length, width, two, out2) == fold_bits(
                shifted, width
            )


class TestPredictorHashEquivalence:
    """TAGE/ITTAGE hashes read from the live folds, and E-VTAGE's
    one-pass scalar hashes of the raw registers, equal their
    fold_bits-based references."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tage_indices_and_tags_bit_identical(self, seed):
        rng = random.Random(1000 + seed)
        bound = TagePredictor()
        reference = TagePredictor()  # unbound: always takes the slow path
        h = HistorySet()
        bound.bind_history(h)
        for _ in range(150):
            _random_events(h, rng, rng.randrange(1, 8))
            pc = rng.getrandbits(30) & ~0b11
            snap = h.snapshot()
            fast = bound._hashes(pc, h)
            slow = reference._hashes(pc, snap)
            assert fast == slow

    @pytest.mark.parametrize("seed", range(4))
    def test_ittage_indices_and_tags_bit_identical(self, seed):
        rng = random.Random(2000 + seed)
        bound = IttagePredictor()
        reference = IttagePredictor()
        h = HistorySet()
        bound.bind_history(h)
        for _ in range(150):
            _random_events(h, rng, rng.randrange(1, 8))
            pc = rng.getrandbits(30) & ~0b11
            assert bound._hashes(pc, h) == reference._hashes(
                pc, h.snapshot()
            )

    def test_evtage_hashes_bit_identical(self):
        rng = random.Random(4242)
        evtage = EVtagePredictor()
        bits = evtage._index_bits
        h = HistorySet()
        for _ in range(150):
            _random_events(h, rng, rng.randrange(1, 8))
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


class TestSnapshotRestore:
    """Satellite: flush restores must repair every fold width."""

    def test_restore_repairs_every_fold_width(self):
        rng = random.Random(5)
        h = HistorySet()
        slots = _register_all(h)
        _random_events(h, rng, 60)
        snap = h.snapshot()
        expected = {slot: h.fold_cell(slot)[0] for slot in slots.values()}
        _random_events(h, rng, 40)  # wrong-path progress
        h.restore(snap)
        for slot, value in expected.items():
            assert h.fold_cell(slot)[0] == value
        _assert_oracle(h, slots)

    def test_nested_flush_restore(self):
        """A flush *inside* wrong-path recovery (restore to an older
        snapshot after already restoring a younger one) must still
        leave every fold register bit-exact."""
        rng = random.Random(6)
        h = HistorySet()
        slots = _register_all(h)
        _random_events(h, rng, 30)
        outer = h.snapshot()
        _random_events(h, rng, 20)
        inner = h.snapshot()
        _random_events(h, rng, 20)
        h.restore(inner)
        _assert_oracle(h, slots)
        _random_events(h, rng, 10)
        h.restore(outer)  # nested: second, older restore
        assert h.direction == outer.direction
        _assert_oracle(h, slots)
        # ... and the registers keep tracking after recovery.
        _random_events(h, rng, 25)
        _assert_oracle(h, slots)

    def test_restore_reseeds_folds_registered_after_snapshot(self):
        """Folds the snapshot does not cover fall back to the oracle."""
        rng = random.Random(8)
        h = HistorySet()
        early = h.register_direction_fold(20, 6)
        _random_events(h, rng, 30)
        snap = h.snapshot()
        _random_events(h, rng, 15)
        late = h.register_direction_fold(48, 5)  # not in snap.folded
        h.restore(snap)
        assert h.fold_cell(early)[0] == fold_bits(
            h.direction & mask(20), 6
        )
        assert h.fold_cell(late)[0] == fold_bits(
            h.direction & mask(48), 5
        )

    def test_snapshot_carries_folded_values(self):
        h = HistorySet()
        h.register_direction_fold(10, 4)
        h.push_branch(0x1000, True)
        snap = h.snapshot()
        assert snap.folded == h.folded_values()
        h.push_branch(0x1004, False)
        assert snap.folded != h.folded_values()
