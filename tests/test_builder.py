"""Tests for the program builder (PC/data/register allocation)."""

import warnings

import numpy as np
import pytest

from repro.common.rng import DeterministicRng
from repro.memory.image import MemoryImage
from repro.workloads.builder import CODE_BASE, DATA_BASE, ProgramBuilder
from repro.workloads.kernels import _scramble, _scramble_column


@pytest.fixture
def builder():
    return ProgramBuilder(DeterministicRng(0))


class TestCodeAllocation:
    def test_blocks_are_cache_line_separated(self, builder):
        a = builder.alloc_code(3)
        b = builder.alloc_code(3)
        assert a == CODE_BASE
        assert b - a >= 64
        assert b % 64 == 0

    def test_instruction_pcs_are_aligned(self, builder):
        base = builder.alloc_code(10)
        assert base % 4 == 0

    def test_rejects_empty(self, builder):
        with pytest.raises(ValueError):
            builder.alloc_code(0)


class TestDataAllocation:
    def test_regions_do_not_overlap(self, builder):
        a = builder.alloc_data(100)
        b = builder.alloc_data(100)
        assert a >= DATA_BASE
        assert b >= a + 100

    def test_alignment(self, builder):
        builder.alloc_data(7)
        b = builder.alloc_data(8, align=64)
        assert b % 64 == 0

    def test_rejects_empty(self, builder):
        with pytest.raises(ValueError):
            builder.alloc_data(0)

    def test_populate(self, builder):
        base = builder.alloc_data(4 * 8)
        builder.populate(base, 4, 8, np.arange(4, dtype=np.uint64) * 10)
        assert builder.memory.read(base + 16, 8) == 20


def reference_populate(image, base, count, size, value_fn):
    """Element-wise pre-population: one :meth:`MemoryImage.write` each.

    This was the builder's writer before regions went in as word
    columns; :meth:`ProgramBuilder.populate` must leave the image
    exactly as it does.
    """
    for i in range(count):
        image.write(base + i * size, size, value_fn(i))


def assert_same_image(got: MemoryImage, want: MemoryImage, base, nbytes):
    assert list(got._words) == list(want._words)
    assert got._words == want._words
    assert len(got) == len(want)
    assert got.to_packed() == want.to_packed()
    for addr in range(base - 8, base + nbytes + 16):
        assert got.read(addr, 1) == want.read(addr, 1)


class TestPopulateMatchesElementWrites:
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    @pytest.mark.parametrize("count", [1, 3, 7, 16, 33])
    @pytest.mark.parametrize("kind", ["scrambled", "splat", "ramp"])
    def test_column_equals_reference(self, size, count, kind):
        base = 0x1000_0040
        if kind == "scrambled":
            column = _scramble_column(np.arange(count, dtype=np.uint64))
            value_fn = _scramble
        elif kind == "splat":
            splat = _scramble(0x51)
            column = np.full(count, splat, dtype=np.uint64)
            value_fn = lambda i: splat  # noqa: E731
        else:
            column = np.arange(count, dtype=np.uint64) * 0x0101
            value_fn = lambda i: i * 0x0101  # noqa: E731
        builder = ProgramBuilder(DeterministicRng(0))
        reference = MemoryImage()
        # Words on both sides of the region already hold data, so a
        # partial last word must keep the bytes past the region.
        for image in (builder.memory, reference):
            image.write(base - 8, 8, 0x1111_2222_3333_4444)
            image.write(base + count * size - (count * size) % 8, 8,
                        0xAAAA_BBBB_CCCC_DDDD)
            image.write(base + count * size + 8, 8, 0x5555)
        builder.populate(base, count, size, column)
        reference_populate(reference, base, count, size, value_fn)
        assert_same_image(builder.memory, reference, base, count * size)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_fresh_image(self, size):
        base = 0x2000
        count = 8 // size * 3 + 1 if size < 8 else 5
        column = _scramble_column(np.arange(count, dtype=np.uint64))
        builder = ProgramBuilder(DeterministicRng(0))
        reference = MemoryImage()
        builder.populate(base, count, size, column)
        reference_populate(reference, base, count, size, _scramble)
        assert_same_image(builder.memory, reference, base, count * size)

    def test_zero_values_insert_their_words(self):
        builder = ProgramBuilder(DeterministicRng(0))
        reference = MemoryImage()
        builder.populate(0x3000, 6, 4, np.zeros(6, dtype=np.uint64))
        reference_populate(reference, 0x3000, 6, 4, lambda i: 0)
        assert list(builder.memory._words) == list(reference._words)
        assert builder.memory.to_packed() == (b"", b"")

    def test_empty_region(self, builder):
        builder.populate(0x4000, 0, 4, np.zeros(0, dtype=np.uint64))
        assert len(builder.memory) == 0

    @pytest.mark.parametrize("base", [0x1001, 0x1004, 0x1006])
    def test_unaligned_base_raises(self, builder, base):
        with pytest.raises(ValueError, match="aligned"):
            builder.populate(base, 4, 4, np.arange(4, dtype=np.uint64))
        assert len(builder.memory) == 0

    def test_bad_size_or_count_raises(self, builder):
        with pytest.raises(ValueError):
            builder.populate(0x1000, 4, 3, np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            builder.populate(0x1000, 5, 8, np.arange(4, dtype=np.uint64))


class TestScrambleColumn:
    """The numpy twin of ``_scramble`` the builders populate with."""

    def _check(self, indices):
        column = np.array(indices, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _scramble_column(column).tolist()
        assert got == [_scramble(int(i)) for i in indices]

    def test_edge_indices(self):
        self._check([0, 1, 2**32, 2**63 - 1, 2**64 - 2])

    def test_random_indices(self):
        rng = np.random.default_rng(20190216)
        self._check(rng.integers(0, 2**64 - 1, size=10_000,
                                 dtype=np.uint64).tolist())

    @pytest.mark.parametrize("n", [1, 2, 128, 1000])
    def test_chained_stride_links(self, n):
        links = (np.arange(n, dtype=np.uint64) + 1) % n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _scramble_column(links).tolist()
        assert got == [_scramble((i + 1) % n) for i in range(n)]


class TestRegisters:
    def test_round_robin(self, builder):
        regs = builder.alloc_regs(5)
        assert regs == [0, 1, 2, 3, 4]

    def test_wraps_at_31(self, builder):
        builder.alloc_regs(30)
        regs = builder.alloc_regs(3)
        assert regs == [30, 0, 1]


class TestKernelIds:
    def test_monotonic_unique(self, builder):
        ids = [builder.next_kernel_id() for _ in range(5)]
        assert ids == sorted(set(ids))


class ElementWrite(AssertionError):
    pass


def guard_populate(monkeypatch, populate):
    """Install ``populate`` with :meth:`MemoryImage.write` raising inside.

    Returns the list of element sizes ``populate`` is called with, so a
    test can show the guard saw sub-word regions.
    """
    sizes = []
    inside = []
    write = MemoryImage.write

    def guarded_populate(self, base, count, size, values):
        sizes.append(size)
        inside.append(True)
        try:
            populate(self, base, count, size, values)
        finally:
            inside.pop()

    def guarded_write(self, addr, size, value):
        if inside:
            raise ElementWrite("populate wrote one element at a time")
        write(self, addr, size, value)

    monkeypatch.setattr(ProgramBuilder, "populate", guarded_populate)
    monkeypatch.setattr(MemoryImage, "write", guarded_write)
    return sizes


def element_wise_populate(self, base, count, size, values):
    reference_populate(self.memory, base, count, size,
                       lambda i: int(values[i]))


def test_the_guard_catches_element_writes(monkeypatch):
    guard_populate(monkeypatch, element_wise_populate)
    builder = ProgramBuilder(DeterministicRng(0))
    with pytest.raises(ElementWrite):
        builder.populate(0x1000, 4, 4, np.arange(4, dtype=np.uint64))


def test_smoke_workloads_populate_in_word_columns(monkeypatch):
    from repro.harness.presets import SMOKE
    from repro.workloads import store as trace_store
    from repro.workloads.generator import clear_trace_caches, generate_trace

    monkeypatch.delenv(trace_store.ENV_VAR, raising=False)
    clear_trace_caches()
    sizes = guard_populate(monkeypatch, ProgramBuilder.populate)
    try:
        for seed in (0, 11):
            for name in SMOKE.workloads:
                assert len(generate_trace(name, 2000, seed)) == 2000
    finally:
        clear_trace_caches()
    assert {4, 8} <= set(sizes)
