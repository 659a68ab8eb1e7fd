"""Tests for the lane scheduler oracle and the window tracker."""

import pytest

from oracles.core_loop import LaneScheduler
from repro.pipeline.resources import WindowTracker


class TestLaneScheduler:
    def test_parallel_lanes(self):
        lanes = LaneScheduler(2)
        assert lanes.acquire(10) == 10
        assert lanes.acquire(10) == 10
        assert lanes.acquire(10) == 11  # both lanes busy at cycle 10

    def test_out_of_order_acquisition(self):
        """A late booking far in the future must not block an earlier
        ready instruction (k-server min-heap semantics)."""
        lanes = LaneScheduler(2)
        assert lanes.acquire(100) == 100
        assert lanes.acquire(5) == 5

    def test_single_lane_serializes(self):
        lanes = LaneScheduler(1)
        assert lanes.acquire(0) == 0
        assert lanes.acquire(0) == 1
        assert lanes.acquire(0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LaneScheduler(0)


class TestWindowTracker:
    def test_no_constraint_until_full(self):
        window = WindowTracker(2)
        assert window.earliest_allocation() == 0
        window.admit(100)
        assert window.earliest_allocation() == 0
        window.admit(200)
        assert window.earliest_allocation() == 100  # oldest release

    def test_sliding(self):
        window = WindowTracker(2)
        window.admit(10)
        window.admit(20)
        window.admit(30)  # displaces the entry released at 10
        assert window.earliest_allocation() == 20

    def test_len(self):
        window = WindowTracker(3)
        window.admit(1)
        window.admit(2)
        assert len(window) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowTracker(0)
