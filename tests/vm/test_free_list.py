"""Tests for the (optionally colored) free page list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.vm.free_list import FreePageList


class TestPlain:
    def test_lifo_reuse(self):
        fl = FreePageList(range(4), num_cache_pages=4)
        first = fl.allocate()
        fl.free(first)
        assert fl.allocate() == first

    def test_exhaustion(self):
        fl = FreePageList(range(1), num_cache_pages=4)
        fl.allocate()
        with pytest.raises(OutOfMemoryError):
            fl.allocate()

    def test_len(self):
        fl = FreePageList(range(5), num_cache_pages=4)
        fl.allocate()
        assert len(fl) == 4

    def test_color_ignored_when_not_colored(self):
        fl = FreePageList(range(4), num_cache_pages=4, colored=False)
        fl.free(99, color=2)
        # goes to the plain list; still allocatable
        got = [fl.allocate() for _ in range(5)]
        assert 99 in got


class TestColored:
    def test_prefers_matching_color(self):
        fl = FreePageList([], num_cache_pages=4, colored=True)
        fl.free(10, color=1)
        fl.free(11, color=2)
        assert fl.allocate(color=2) == 11
        assert fl.color_hits == 1

    def test_falls_back_across_colors(self):
        fl = FreePageList([], num_cache_pages=4, colored=True)
        fl.free(10, color=1)
        assert fl.allocate(color=3) == 10
        assert fl.color_misses == 1

    def test_plain_pool_used_before_stealing(self):
        fl = FreePageList([5], num_cache_pages=4, colored=True)
        fl.free(10, color=1)
        assert fl.allocate(color=3) == 5     # plain before stealing

    def test_color_wraps_modulo(self):
        fl = FreePageList([], num_cache_pages=4, colored=True)
        fl.free(10, color=5)    # = color 1
        assert fl.allocate(color=1) == 10
        assert fl.color_hits == 1

    def test_exhaustion_across_all_pools(self):
        fl = FreePageList([], num_cache_pages=4, colored=True)
        with pytest.raises(OutOfMemoryError):
            fl.allocate(color=0)


def recount(fl):
    return len(fl._plain) + sum(len(bucket) for bucket in fl._by_color.values())


colors = st.none() | st.integers(0, 9)
free_list_ops = st.lists(st.one_of(
    st.tuples(st.just("allocate"), colors),
    st.tuples(st.just("free"), colors),
    st.tuples(st.just("allocate_run"), st.integers(1, 3))), max_size=60)


class TestLength:
    @given(st.booleans(), st.integers(0, 12), free_list_ops)
    @settings(max_examples=200, deadline=None)
    def test_len_is_an_exact_recount(self, colored, n_initial, ops):
        # len() is kept as a count, not summed over the colour buckets:
        # after every step it must equal a recount of every container.
        fl = FreePageList(range(n_initial), num_cache_pages=4,
                          colored=colored)
        held, fresh, expected = [], iter(range(100, 200)), n_initial
        for op, arg in ops:
            if op == "allocate":
                if expected == 0:
                    with pytest.raises(OutOfMemoryError):
                        fl.allocate(arg)
                else:
                    held.append(fl.allocate(arg))
                    expected -= 1
            elif op == "free":
                fl.free(held.pop() if held else next(fresh), arg)
                expected += 1
            else:
                try:
                    held.extend(fl.allocate_run(arg))
                    expected -= arg
                except OutOfMemoryError:
                    pass
            assert len(fl) == recount(fl) == expected
            if not colored:
                assert not any(fl._by_color.values())
