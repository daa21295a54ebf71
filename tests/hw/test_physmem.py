"""Tests for the physical memory substrate."""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.hw.physmem import PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(num_pages=8, page_size=4096)


class TestWordAccess:
    def test_starts_zeroed(self, mem):
        assert mem.read_word(0) == 0
        assert mem.read_word(mem.size - 4) == 0

    def test_write_read_roundtrip(self, mem):
        mem.write_word(128, 0xDEADBEEF)
        assert mem.read_word(128) == 0xDEADBEEF

    def test_unaligned_word_rejected(self, mem):
        with pytest.raises(AddressError):
            mem.read_word(2)

    def test_out_of_range_rejected(self, mem):
        with pytest.raises(AddressError):
            mem.write_word(mem.size, 1)

    def test_negative_rejected(self, mem):
        with pytest.raises(AddressError):
            mem.read_word(-4)


class TestLineAccess:
    def test_line_roundtrip(self, mem):
        values = np.arange(8, dtype=np.uint64)
        mem.write_line(64, values)
        assert np.array_equal(mem.read_line(64, 8), values)

    def test_read_line_returns_copy(self, mem):
        line = mem.read_line(0, 8)
        line[0] = 99
        assert mem.read_word(0) == 0


class TestPageAccess:
    def test_page_roundtrip(self, mem):
        values = np.arange(1024, dtype=np.uint64)
        mem.write_page(3, values)
        assert np.array_equal(mem.read_page(3), values)
        assert mem.read_word(3 * 4096) == 0
        assert mem.read_word(3 * 4096 + 4) == 1

    def test_zero_page(self, mem):
        mem.write_page(2, np.ones(1024, dtype=np.uint64))
        mem.zero_page(2)
        assert not mem.read_page(2).any()

    def test_wrong_size_rejected(self, mem):
        with pytest.raises(AddressError):
            mem.write_page(0, np.zeros(100, dtype=np.uint64))

    def test_page_bounds(self, mem):
        with pytest.raises(AddressError):
            mem.read_page(8)

    def test_page_helpers(self, mem):
        assert mem.page_base(2) == 8192
        with pytest.raises(AddressError):
            mem.page_base(9)
