"""Tests for speculative history registers."""

import pickle

from repro.branch.history import (
    LOAD_PATH_BITS,
    MAX_DIRECTION_BITS,
    HistorySet,
)


class TestDirectionHistory:
    def test_shifts_outcomes(self):
        h = HistorySet()
        h.push_branch(0x1000, True)
        h.push_branch(0x1004, False)
        h.push_branch(0x1008, True)
        assert h.direction & 0b111 == 0b101

    def test_direction_bits_window(self):
        h = HistorySet()
        for i in range(10):
            h.push_branch(0x1000, i % 2 == 0)
        assert h.direction_bits(4) == h.direction & 0b1111
        assert h.direction_bits(0) == 0

    def test_bounded_width(self):
        h = HistorySet()
        for i in range(MAX_DIRECTION_BITS + 100):
            h.push_branch(0x1000 + 4 * i, True)
        assert h.direction < (1 << MAX_DIRECTION_BITS)


class TestPathHistories:
    def test_unconditional_updates_path_not_direction(self):
        h = HistorySet()
        h.push_unconditional(0x2004)
        assert h.direction == 0

    def test_memory_path_includes_loads_and_stores(self):
        """Stores must shift the memory-path register (Table V's CAP
        behaviour depends on it)."""
        loads_only = HistorySet()
        loads_only.push_memory(0x3004)
        with_store = HistorySet()
        with_store.push_memory(0x3004)
        with_store.push_memory(0x4008)  # e.g. a store PC
        assert loads_only.load_path != with_store.load_path

    def test_load_path_bounded(self):
        h = HistorySet()
        for i in range(100):
            h.push_memory(0x1000 + 4 * i)
        assert h.load_path < (1 << LOAD_PATH_BITS)


class TestCheckpoints:
    def test_pickle_round_trip_restores_registers(self):
        """Serve checkpoints save a session's registers by pickling its
        :class:`HistorySet`; restoring one brings back exactly the
        registers saved, whatever was pushed since."""
        h = HistorySet()
        h.push_branch(0x1000, True)
        h.push_unconditional(0x1040)
        h.push_memory(0x2004)
        saved = pickle.dumps(h)
        registers = dict(vars(h))
        h.push_branch(0x1008, False)
        h.push_memory(0x3008)
        assert vars(h) != registers
        assert vars(pickle.loads(saved)) == registers
        assert set(registers) == {"direction", "path", "load_path"}
