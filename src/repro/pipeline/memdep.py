"""Store-set memory dependence predictor (Chrysos & Emer style).

Table III's baseline lists "a memory dependence predictor similar to
Alpha 21264".  Its role in the timing model: an out-of-order core
*speculates* that a load does not depend on older in-flight stores.
When that guess is wrong (the store's data was not ready and the load
read stale memory), the machine suffers a memory-order violation flush
and the predictor learns to make that (load, store) pair wait next
time.

Implementation follows the classic two-table design, sized like the
Alpha's wave-off structures:

* **SSIT** -- store-set ID table, PC-indexed, shared by loads and
  stores.  A violation merges the load's and store's entries into one
  store set.
* **LFST** -- last fetched store table: for each store set, the
  data-ready time of the most recent older store, which a predicted-
  dependent load must wait for.

Entries decay with a periodic flash-clear, as in the Alpha, so stale
dependencies do not throttle loads forever.
"""

from __future__ import annotations

from repro.common.bits import bit_length_for

_INVALID = -1


class StoreSetPredictor:
    """SSIT + LFST memory dependence predictor."""

    def __init__(self, ssit_entries: int = 2048,
                 lfst_entries: int = 256,
                 clear_interval: int = 131072) -> None:
        self._ssit_bits = bit_length_for(ssit_entries)
        self._ssit = [_INVALID] * ssit_entries
        self._lfst_entries = lfst_entries
        #: store-set id -> data-ready cycle of its last fetched store
        self._lfst: dict[int, int] = {}
        self._next_ssid = 0
        self.clear_interval = clear_interval
        self._ops_until_clear = clear_interval
        self.violations = 0
        self.waits_enforced = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ (pc >> (2 + self._ssit_bits))) & (
            (1 << self._ssit_bits) - 1
        )

    # ------------------------------------------------------------------
    # Issue-side queries
    # ------------------------------------------------------------------

    def load_wait_until(self, pc: int) -> int:
        """Earliest cycle a predicted-dependent load may issue.

        Returns -1 when the load has no store set or its set has no
        outstanding store.
        """
        ssid = self._ssit[self._index(pc)]
        if ssid == _INVALID:
            return -1
        ready = self._lfst.get(ssid, -1)
        if ready >= 0:
            self.waits_enforced += 1
        return ready

    def note_store(self, pc: int, data_ready: int) -> None:
        """Record a fetched store's data-ready time in its set."""
        self._tick()
        ssid = self._ssit[self._index(pc)]
        if ssid != _INVALID:
            self._lfst[ssid] = data_ready

    # ------------------------------------------------------------------
    # Violation training
    # ------------------------------------------------------------------

    def record_violation(self, load_pc: int, store_pc: int) -> None:
        """A load issued past a conflicting store: merge their sets."""
        self.violations += 1
        load_idx = self._index(load_pc)
        store_idx = self._index(store_pc)
        load_ssid = self._ssit[load_idx]
        store_ssid = self._ssit[store_idx]
        if load_ssid == _INVALID and store_ssid == _INVALID:
            ssid = self._next_ssid % self._lfst_entries
            self._next_ssid += 1
            self._ssit[load_idx] = ssid
            self._ssit[store_idx] = ssid
        elif load_ssid == _INVALID:
            self._ssit[load_idx] = store_ssid
        elif store_ssid == _INVALID:
            self._ssit[store_idx] = load_ssid
        else:
            # Both assigned: merge into the smaller id (the canonical
            # store-set merge rule keeps sets converging).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_idx] = winner
            self._ssit[store_idx] = winner

    def _tick(self) -> None:
        self._ops_until_clear -= 1
        if self._ops_until_clear <= 0:
            # In place: the timing loop reads both tables through
            # bindings made once per run.
            self._ssit[:] = [_INVALID] * len(self._ssit)
            self._lfst.clear()
            self._ops_until_clear = self.clear_interval

    def storage_bits(self) -> int:
        ssid_bits = bit_length_for(self._lfst_entries)
        return len(self._ssit) * (ssid_bits + 1)
