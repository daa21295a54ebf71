"""Tests for the bit vector backing the page-state encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitvector import BitVector
from repro.errors import AddressError


class TestBasics:
    def test_starts_clear(self):
        bv = BitVector(8)
        assert not bv.any()
        assert bv.count() == 0

    def test_set_and_get(self):
        bv = BitVector(8)
        bv[3] = True
        assert bv[3]
        assert not bv[2]
        assert bv.count() == 1

    def test_clear_single_bit(self):
        bv = BitVector(8)
        bv[3] = True
        bv[3] = False
        assert not bv[3]

    def test_out_of_range_read(self):
        with pytest.raises(AddressError):
            BitVector(8)[8]

    def test_out_of_range_write(self):
        with pytest.raises(AddressError):
            BitVector(8)[-1] = True

    def test_zero_width_rejected(self):
        with pytest.raises(AddressError):
            BitVector(0)


class TestBulkOps:
    def test_or_with(self):
        a, b = BitVector(8), BitVector(8)
        a[1] = True
        b[2] = True
        a.or_with(b)
        assert a[1] and a[2]
        assert b[1] is False  # b unchanged

    def test_or_with_width_mismatch(self):
        with pytest.raises(AddressError):
            BitVector(8).or_with(BitVector(4))

    def test_clear_all(self):
        bv = BitVector(8)
        for i in (0, 3, 7):
            bv[i] = True
        bv.clear_all()
        assert not bv.any()

    def test_indices_ascending(self):
        bv = BitVector(16)
        for i in (9, 2, 14):
            bv[i] = True
        assert bv.indices() == [2, 9, 14]

    def test_first(self):
        bv = BitVector(16)
        assert bv.first() is None
        bv[5] = True
        bv[11] = True
        assert bv.first() == 5

    def test_copy_is_independent(self):
        bv = BitVector(8)
        bv[1] = True
        other = bv.copy()
        other[2] = True
        assert not bv[2]
        assert other[1]

    def test_equality(self):
        a, b = BitVector(8), BitVector(8)
        a[4] = True
        assert a != b
        b[4] = True
        assert a == b
        assert a != BitVector(16)

    def test_high_bit_masked_on_construction(self):
        bv = BitVector(4, bits=0xFF)
        assert bv.count() == 4
        assert bv.indices() == [0, 1, 2, 3]


class TestAgainstTheNaiveModel:
    """``indices`` walks set bits lowest first; the model tests every
    index of the width."""

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 128), bits=st.integers(-(2**140), 2**140))
    def test_indices_first_count(self, width, bits):
        bv = BitVector(width, bits)
        model = [i for i in range(width) if (bits >> i) & 1]
        assert bv.indices() == model
        assert bv.first() == (model[0] if model else None)
        assert bv.count() == len(model)
        assert bv.any() == bool(model)
        assert [bv[i] for i in range(width)] == \
            [i in model for i in range(width)]
