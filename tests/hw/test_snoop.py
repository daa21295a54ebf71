"""Unit tests for the cache's coherence snoop primitive."""

import pytest

from repro.hw.cache import Cache
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters
from tests.hw.cache_helpers import dirty_lines


def make_cache(assoc=1):
    geo = CacheGeometry(size=16 * 1024, associativity=assoc)
    mem = PhysicalMemory(8, 4096)
    return Cache(geo, mem, CostModel(), Clock(), Counters()), mem, geo


class TestSnoop:
    def test_miss_returns_none(self):
        cache, mem, geo = make_cache()
        assert cache.snoop(0, 0, invalidate=True) is None

    def test_clean_copy_reported_and_invalidated(self):
        cache, mem, geo = make_cache()
        cache.read(0, 0)
        set_idx = geo.set_index(0)
        assert cache.snoop(set_idx, 0, invalidate=True) == "clean"
        assert cache.resident_lines(0, 0) == 0

    def test_clean_copy_survives_read_probe(self):
        cache, mem, geo = make_cache()
        cache.read(0, 0)
        set_idx = geo.set_index(0)
        assert cache.snoop(set_idx, 0, invalidate=False) == "clean"
        assert cache.resident_lines(0, 0) == 1

    def test_dirty_copy_written_back(self):
        cache, mem, geo = make_cache()
        cache.write(0, 0, 42)
        set_idx = geo.set_index(0)
        assert cache.snoop(set_idx, 0, invalidate=False) == "dirty"
        assert mem.read_word(0) == 42
        # left clean (shared) in place
        assert dirty_lines(cache, 0, 0) == 0
        assert cache.resident_lines(0, 0) == 1

    def test_dirty_invalidate_writes_back_then_drops(self):
        cache, mem, geo = make_cache()
        cache.write(0, 0, 7)
        set_idx = geo.set_index(0)
        assert cache.snoop(set_idx, 0, invalidate=True) == "dirty"
        assert mem.read_word(0) == 7
        assert cache.resident_lines(0, 0) == 0

    def test_wrong_tag_is_a_miss(self):
        cache, mem, geo = make_cache()
        cache.read(0, 0)
        set_idx = geo.set_index(0)
        assert cache.snoop(set_idx, 999, invalidate=True) is None
        assert cache.resident_lines(0, 0) == 1

    def test_associative_snoop_finds_any_way(self):
        cache, mem, geo = make_cache(assoc=2)
        span = geo.way_span
        cache.write(0, 0, 1)
        cache.write(span, span, 2)            # other way, same set
        set_idx = geo.set_index(0)
        tag2 = span // geo.line_size
        assert cache.snoop(set_idx, tag2, invalidate=True) == "dirty"
        assert mem.read_word(span) == 2
        assert cache.read(0, 0) == 1          # first way untouched
