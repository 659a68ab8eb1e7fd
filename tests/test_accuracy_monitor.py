"""Tests for the accuracy monitors (M-AM and PC-AM).

The monitors speak slot masks over the canonical component order; the
helpers below let the scenarios name components instead.
"""

import pytest

from repro.composite.accuracy_monitor import (
    InfinitePcAm,
    MAm,
    NullAccuracyMonitor,
    PcAm,
    make_accuracy_monitor,
)
from repro.predictors import COMPONENT_NAMES


def _bit(name: str) -> int:
    return 1 << COMPONENT_NAMES.index(name)


def record(monitor, pc, verdicts: dict, used: str | None, used_correct):
    """One validation: ``verdicts`` maps each confident component to its
    verdict, ``used`` names the chosen one (``used_correct`` must agree
    with its verdict)."""
    confident = correct = 0
    for name, ok in verdicts.items():
        confident |= _bit(name)
        if ok:
            correct |= _bit(name)
    assert used is None or verdicts[used] == used_correct
    chosen = COMPONENT_NAMES.index(used) if used is not None else -1
    monitor.record(pc, confident, correct, chosen)


def silenced(monitor, name: str, pc: int) -> bool:
    """Whether ``name``'s confident prediction at ``pc`` is squashed."""
    return monitor.silenced(pc, _bit(name)) == _bit(name)


class TestFactory:
    def test_variants(self):
        assert isinstance(make_accuracy_monitor("none"), NullAccuracyMonitor)
        assert isinstance(make_accuracy_monitor("m-am"), MAm)
        assert isinstance(make_accuracy_monitor("pc-am"), PcAm)
        assert isinstance(
            make_accuracy_monitor("pc-am-infinite"), InfinitePcAm
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_accuracy_monitor("bogus")


class TestNull:
    def test_never_silences(self):
        monitor = NullAccuracyMonitor()
        record(monitor, 0x1000, {"sap": False}, "sap", False)
        assert not silenced(monitor, "sap", 0x1000)


class TestMAm:
    def test_silences_component_above_threshold(self):
        monitor = MAm(mpkp_threshold=3.0)
        for _ in range(100):
            record(monitor, 0x1000, {"sap": True}, "sap", True)
        for _ in range(5):
            record(monitor, 0x1000, {"sap": False}, "sap", False)
        monitor.end_epoch()  # ~48 MPKP > 3
        assert silenced(monitor, "sap", 0x1234)  # global silencing
        assert not silenced(monitor, "lvp", 0x1234)

    def test_accurate_component_not_silenced(self):
        monitor = MAm(mpkp_threshold=3.0)
        for _ in range(1000):
            record(monitor, 0x1000, {"lvp": True}, "lvp", True)
        record(monitor, 0x1000, {"lvp": False}, "lvp", False)
        monitor.end_epoch()  # ~1 MPKP < 3
        assert not silenced(monitor, "lvp", 0x1000)

    def test_silenced_component_reenabled_next_epoch(self):
        """A silenced component makes no used predictions, so its next
        epoch rate reads clean and it gets another chance."""
        monitor = MAm(mpkp_threshold=3.0)
        record(monitor, 0x1000, {"sap": False}, "sap", False)
        monitor.end_epoch()
        assert silenced(monitor, "sap", 0x1000)
        monitor.end_epoch()  # no predictions recorded while silenced
        assert not silenced(monitor, "sap", 0x1000)

    def test_only_used_predictions_counted(self):
        monitor = MAm()
        record(monitor, 0x1000, {"sap": False, "cap": False}, None, False)
        monitor.end_epoch()
        assert not silenced(monitor, "sap", 0x1000)


class TestPcAm:
    def _mispredict(self, monitor, pc, component="sap"):
        record(monitor, pc, {component: False}, component, False)

    def test_allocation_only_on_flush(self):
        monitor = PcAm(entries=64)
        record(monitor, 0x1000, {"sap": True}, "sap", True)
        assert monitor._lookup(0x1000) is None
        self._mispredict(monitor, 0x1000)
        assert monitor._lookup(0x1000) is not None

    def test_two_strike_semantics(self):
        """The allocating misprediction is not pre-charged: a PC is
        silenced only by bad behaviour *after* allocation."""
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000)
        assert not silenced(monitor, "sap", 0x1000)
        self._mispredict(monitor, 0x1000)  # now counted: 0/1 -> 0%
        assert silenced(monitor, "sap", 0x1000)

    def test_recovers_with_correct_predictions(self):
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000)
        self._mispredict(monitor, 0x1000)
        assert silenced(monitor, "sap", 0x1000)
        for _ in range(30):
            record(monitor, 0x1000, {"sap": True}, "sap", True)
        assert not silenced(monitor, "sap", 0x1000)  # 30/31 > 95%

    def test_per_pc_isolation(self):
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000)
        self._mispredict(monitor, 0x1000)
        assert silenced(monitor, "sap", 0x1000)
        assert not silenced(monitor, "sap", 0x2000)

    def test_per_component_isolation(self):
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000)
        record(monitor, 0x1000, {"sap": False, "lvp": True}, "sap", False)
        assert silenced(monitor, "sap", 0x1000)
        assert not silenced(monitor, "lvp", 0x1000)

    def test_counter_halving_preserves_ratio(self):
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000)
        for _ in range(300):  # drive counters past the 8-bit MSB
            record(monitor, 0x1000, {"sap": True}, "sap", True)
        entry = monitor._lookup(0x1000)
        assert max(entry.correct.values()) < 128
        assert entry.correct["sap"] / (
            entry.correct["sap"] + entry.incorrect["sap"]
        ) > 0.95

    def test_power_of_two_entries_required(self):
        with pytest.raises(ValueError):
            PcAm(entries=60)

    def test_storage_bits(self):
        assert PcAm(entries=64).storage_bits() == 64 * (10 + 64)

    def test_updates_all_confident_components(self):
        """Non-chosen confident components are monitored too."""
        monitor = PcAm(entries=64)
        self._mispredict(monitor, 0x1000, "cap")
        record(monitor, 0x1000, {"cap": False, "sap": False}, "cap", False)
        assert silenced(monitor, "sap", 0x1000)


class TestInfinitePcAm:
    def test_no_capacity_pressure(self):
        monitor = InfinitePcAm()
        for k in range(1000):
            pc = 0x1000 + 4 * k
            record(monitor, pc, {"sap": False}, "sap", False)
            record(monitor, pc, {"sap": False}, "sap", False)
        assert all(
            silenced(monitor, "sap", 0x1000 + 4 * k) for k in range(1000)
        )

    def test_finite_equivalent_semantics(self):
        finite, infinite = PcAm(entries=64), InfinitePcAm()
        for monitor in (finite, infinite):
            record(monitor, 0x1000, {"sap": False}, "sap", False)
            record(monitor, 0x1000, {"sap": False}, "sap", False)
        assert silenced(finite, "sap", 0x1000) == silenced(infinite, "sap", 0x1000)
