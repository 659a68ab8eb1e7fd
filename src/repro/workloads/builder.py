"""Shared machinery for trace-synthesizing kernels.

A :class:`ProgramBuilder` owns the resources kernels must not fight
over: static PC ranges (predictors are PC-indexed, so each kernel's
"code" keeps fixed PCs across dynamic instances), data regions in the
flat virtual address space, architectural registers, the functional
memory image (so load values are consistent with stores), and the
workload's deterministic RNG.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import DeterministicRng
from repro.isa.instruction import NUM_ARCH_REGS
from repro.memory.image import MemoryImage

#: Code starts here; each kernel gets an aligned block of PCs.
CODE_BASE = 0x0040_0000
#: Data regions are allocated upward from here.
DATA_BASE = 0x1000_0000
#: The simulated stack grows from here (stack frames kernel).
STACK_BASE = 0x7F00_0000


class ProgramBuilder:
    """Resource allocator + functional memory for one workload."""

    def __init__(self, rng: DeterministicRng) -> None:
        self.rng = rng
        self.memory = MemoryImage()
        self._next_pc = CODE_BASE
        self._next_data = DATA_BASE
        self._next_reg = 0
        self._kernel_counter = 0

    def next_kernel_id(self) -> int:
        """Unique id per kernel instance (so static copies of the same
        kernel class draw from distinct RNG streams)."""
        self._kernel_counter += 1
        return self._kernel_counter

    # ------------------------------------------------------------------
    # Static code allocation
    # ------------------------------------------------------------------

    def alloc_code(self, instructions: int) -> int:
        """Reserve PCs for ``instructions`` static instructions.

        Returns the base PC; instruction *i* of the kernel lives at
        ``base + 4 * i``.  Blocks are padded to 64 bytes so distinct
        kernels never share an I-cache line.
        """
        if instructions <= 0:
            raise ValueError(f"need at least one instruction, got {instructions}")
        base = self._next_pc
        size = instructions * 4
        self._next_pc += (size + 63) & ~63
        return base

    # ------------------------------------------------------------------
    # Data allocation
    # ------------------------------------------------------------------

    def alloc_data(self, size_bytes: int, align: int = 64) -> int:
        """Reserve a data region; returns its base address."""
        if size_bytes <= 0:
            raise ValueError(f"need a positive region size, got {size_bytes}")
        self._next_data = (self._next_data + align - 1) & ~(align - 1)
        base = self._next_data
        self._next_data += size_bytes
        return base

    def populate(self, base: int, count: int, size: int, values) -> None:
        """Pre-populate ``count`` elements of ``size`` bytes at ``base``.

        ``values`` is a numpy ``uint64`` column: ``values[i]`` is element
        *i*'s value, taken modulo ``2 ** (8 * size)``.  Pre-populated
        data models memory initialized before the traced window starts.
        Elements of 1, 2, 4 or 8 bytes are packed little-endian into
        whole words, so every region goes into the image as one word
        column (:meth:`MemoryImage.write_words`).  A partial last word
        keeps the bytes already past the region, as element-wise
        writes would.  ``base`` must be 8-byte aligned; ``alloc_data``
        aligns to 64.
        """
        if base & 0b111:
            raise ValueError(
                f"populate needs an 8-byte-aligned base, got {base:#x}"
            )
        if size not in (1, 2, 4, 8):
            raise ValueError(f"element size must be 1, 2, 4 or 8, got {size}")
        column = np.asarray(values, dtype=np.uint64)
        if column.shape != (count,):
            raise ValueError(
                f"need {count} element values, got shape {column.shape}"
            )
        nbytes = count * size
        data = np.zeros((nbytes + 7) & ~7, dtype=np.uint8)
        data[:nbytes] = column.astype(f"<u{size}").view(np.uint8)
        words = data.view("<u8")
        tail = nbytes & 0b111
        if tail:
            beyond = self.memory.read(base + nbytes, 8 - tail)
            words[-1] |= np.uint64(beyond << (8 * tail))
        self.memory.write_words(base, words)

    # ------------------------------------------------------------------
    # Register allocation
    # ------------------------------------------------------------------

    def alloc_regs(self, count: int) -> list[int]:
        """Hand out ``count`` architectural registers, round-robin.

        Registers may be shared between kernels once all 31 are in use.
        That only creates extra (false) scheduling dependencies between
        kernel bursts -- trace values are pre-computed, so functional
        correctness is unaffected.
        """
        regs = []
        for _ in range(count):
            regs.append(self._next_reg)
            self._next_reg = (self._next_reg + 1) % NUM_ARCH_REGS
        return regs
