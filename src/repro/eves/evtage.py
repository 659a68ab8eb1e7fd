"""E-VTAGE: the enhanced VTAGE component of EVES.

A last-value base table plus ``num_tables`` tagged tables indexed with
geometrically increasing global (branch direction + path) history.
Unlike our CVP component -- which follows this paper's simplification
of training all tables in parallel -- E-VTAGE uses the championship
allocate-on-mispredict policy with usefulness bits, which is what makes
it storage-efficient at large budgets:

* the *provider* (longest matching table, or base) supplies the value;
* on a correct provider, confidence climbs probabilistically;
* on a wrong provider, confidence resets and, if confidence was zero,
  the entry's value is replaced;
* on a misprediction, a new entry is allocated in one longer-history
  table whose slot is not useful.
"""

from __future__ import annotations

from repro.common.bits import bit_length_for, mask
from repro.common.fpc import FpcVector
from repro.common.hashing import mix64, pc_index
from repro.common.rng import DeterministicRng
from repro.predictors.table import INVALID_TAG
from repro.predictors.types import PredictionKind

_TAG_BITS = 14
_TAG_MASK = mask(_TAG_BITS)
_VALUE_MASK = mask(64)
_MASK64 = mask(64)
_TAG_SCRAMBLE = 0x9E3779B97F4A7C15

#: FPC realizing EVES' high-confidence bar (effective 32 observations;
#: VTAGE entries are per-context so they stabilize faster than LVP).
EVTAGE_FPC = FpcVector.from_ratios(["1", "1", "1/2", "1/4", "1/8", "1/8", "1/8"])
CONFIDENCE_THRESHOLD = 7

#: tag + value + 3b confidence + 2b usefulness.
BITS_PER_TAGGED_ENTRY = _TAG_BITS + 64 + 3 + 2
#: value + 3b confidence (untagged, direct-mapped base).
BITS_PER_BASE_ENTRY = 64 + 3


class EVtagePredictor:
    """The VTAGE component of EVES.

    Tables are stored the :class:`~repro.predictors.table.BankedTable`
    way, one Python list per entry field indexed by set: the base table
    as ``(values, confidences)`` and each tagged table as ``(tags,
    values, confidences, useful)``.  No per-entry objects are built, so
    even the 64K-entry "infinite" preset allocates in milliseconds.
    """

    name = "e-vtage"
    kind = PredictionKind.VALUE

    def __init__(
        self,
        base_entries: int = 1024,
        tagged_entries: int = 512,
        num_tables: int = 6,
        min_history: int = 2,
        max_history: int = 64,
        rng: DeterministicRng | None = None,
    ) -> None:
        self.base_entries = base_entries
        self.tagged_entries = tagged_entries
        self.num_tables = num_tables
        self._rng = (rng or DeterministicRng(0)).derive(self.name)
        self._base = ([0] * base_entries, [0] * base_entries)
        self._base_bits = bit_length_for(base_entries)
        self._tables = [
            (
                [INVALID_TAG] * tagged_entries, [0] * tagged_entries,
                [0] * tagged_entries, [0] * tagged_entries,
            )
            for _ in range(num_tables)
        ]
        self._index_bits = bit_length_for(tagged_entries)
        if not self._index_bits:
            # A tagged table's hash folds down to its index bits.
            raise ValueError(
                f"E-VTAGE needs at least 2 tagged entries, got {tagged_entries}"
            )
        self._lengths = self._history_lengths(min_history, max_history)
        self._probs = tuple(float(p) for p in EVTAGE_FPC.probabilities)
        # Per-table hash constants, in table order: history mask, index
        # salt, tag offset.
        self._hash_consts = tuple(
            (mask(length), mix64(t + 31) & mask(self._index_bits), t * 0x51)
            for t, length in enumerate(self._lengths)
        )
        # One-entry hash memo; see _row.
        self._hash_memo_key: tuple[int, int, int] | None = None
        self._hash_memo: tuple = (0, ())

    def _history_lengths(self, lo: int, hi: int) -> tuple[int, ...]:
        if self.num_tables == 1:
            return (lo,)
        ratio = (hi / lo) ** (1.0 / (self.num_tables - 1))
        lengths: list[int] = []
        for i in range(self.num_tables):
            length = int(round(lo * ratio**i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return tuple(lengths)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _hashes(self, pc: int, direction: int, path: int) -> tuple:
        """``(base index, ((index, tag) per tagged table))`` of one
        load: the scalar reference.

        The base table is indexed by the PC alone.  A tagged table's
        index folds ``pc >> 2``, its direction-history sample, the
        branch path history and its salt down to the index width
        (folding is XOR-linear, so one fold of the terms' XOR equals
        the XOR of their folds); its tag folds ``pc >> 2`` and the
        scrambled history sample down to 14 bits.
        """
        bits = self._index_bits
        imask = (1 << bits) - 1
        pcx = pc >> 2
        pairs = []
        for hmask, salt, offset in self._hash_consts:
            history = direction & hmask
            v = pcx ^ history ^ path ^ salt
            while v > imask:
                v = (v & imask) ^ (v >> bits)
            t = pcx ^ ((history + offset) * _TAG_SCRAMBLE & _MASK64)
            while t > _TAG_MASK:
                t = (t & _TAG_MASK) ^ (t >> _TAG_BITS)
            pairs.append((v, t))
        return pc_index(pc, self._base_bits), tuple(pairs)

    def _row(self, pc: int, direction: int, path: int) -> tuple:
        """The hashes of one load, computed by :meth:`_hashes` behind a
        one-entry memo (a load's ``train`` re-hashes with the histories
        its ``predict`` saw)."""
        key = (pc, direction, path)
        if key != self._hash_memo_key:
            self._hash_memo_key = key
            self._hash_memo = self._hashes(*key)
        return self._hash_memo

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _find_provider(self, row: tuple) -> tuple[int, int]:
        """Return (table, index); table == -1 means the base table."""
        base, pairs = row
        tables = self._tables
        for table in range(self.num_tables - 1, -1, -1):
            index, tag = pairs[table]
            if tables[table][0][index] == tag:
                return table, index
        return -1, base

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> int | None:
        table, index = self._find_provider(self._row(pc, direction, path))
        if table >= 0:
            _, values, confs, _ = self._tables[table]
        else:
            values, confs = self._base
        if confs[index] >= CONFIDENCE_THRESHOLD:
            return values[index]
        return None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int, addr: int, size: int, value: int,
    ) -> None:
        value &= _VALUE_MASK
        row = self._row(pc, direction, path)
        table, index = self._find_provider(row)
        if table >= 0:
            _, values, confs, useful = self._tables[table]
            if values[index] == value:
                self._bump(confs, index)
                useful[index] = min(3, useful[index] + 1)
                return
            if confs[index] == 0:
                values[index] = value
            else:
                confs[index] = 0
            useful[index] = max(0, useful[index] - 1)
            # Allocate a longer-history entry on a (potential)
            # misprediction, with probability 1/2 to limit churn --
            # the VTAGE allocation policy.
            if self._rng.coin(0.5):
                self._allocate(row[1], value, table)
            return

        values, confs = self._base
        if values[index] == value:
            self._bump(confs, index)
            return
        if confs[index] == 0:
            values[index] = value
        else:
            confs[index] = 0
        if self._rng.coin(0.5):
            self._allocate(row[1], value, -1)

    def _bump(self, confs: list[int], index: int) -> None:
        level = confs[index]
        if level < CONFIDENCE_THRESHOLD:
            p = self._probs[level]
            if p >= 1.0 or self._rng.coin(p):
                confs[index] = level + 1

    def _allocate(self, pairs: tuple, value: int, above: int) -> None:
        """Allocate into one longer-history table with a free-ish slot."""
        for table in range(above + 1, self.num_tables):
            index, tag = pairs[table]
            tags, values, confs, useful = self._tables[table]
            if useful[index] == 0:
                tags[index] = tag
                values[index] = value
                confs[index] = 0
                return
            if self._rng.coin(0.25):
                useful[index] -= 1

    def storage_bits(self) -> int:
        return (
            self.base_entries * BITS_PER_BASE_ENTRY
            + self.num_tables * self.tagged_entries * BITS_PER_TAGGED_ENTRY
        )
