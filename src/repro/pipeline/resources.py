"""The occupancy window the core model's PAQ and VPE use."""

from __future__ import annotations

from collections import deque


class WindowTracker:
    """Occupancy constraint for a fixed-size in-order window.

    Models structures such as the ROB and the load/store queues: entry
    ``i`` cannot be allocated before entry ``i - capacity`` has been
    released.  ``admit(when_released)`` records a new entry's release
    cycle and returns the earliest cycle allocation may happen given the
    window was full.

    The caller allocates entries in program order, which matches how
    these structures fill.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._releases: deque[int] = deque()

    def earliest_allocation(self) -> int:
        """Cycle at which the next allocation has a free slot."""
        if len(self._releases) < self.capacity:
            return 0
        return self._releases[0]

    def admit(self, release_cycle: int) -> None:
        """Record a newly allocated entry's (future) release cycle."""
        if len(self._releases) >= self.capacity:
            self._releases.popleft()
        self._releases.append(release_cycle)

    def __len__(self) -> int:
        return len(self._releases)
