"""Tests for the virtually indexed, physically tagged cache simulator.

These exercise exactly the hazards the paper is about: aliased residency,
write-back staleness, lost write-backs, and the flush/purge semantics.
"""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason

PAGE = 4096


def make_cache(size=16 * 1024, assoc=1, write_through=False,
               physically_indexed=False, is_icache=False):
    geo = CacheGeometry(size=size, associativity=assoc,
                        write_through=write_through,
                        physically_indexed=physically_indexed)
    mem = PhysicalMemory(num_pages=32, page_size=PAGE)
    clock = Clock()
    counters = Counters()
    cache = Cache(geo, mem, CostModel(), clock, counters,
                  name="icache" if is_icache else "dcache",
                  is_icache=is_icache)
    return cache, mem, clock, counters


class TestWordAccess:
    def test_miss_then_hit(self):
        cache, mem, clock, counters = make_cache()
        mem.write_word(100 * 4, 77)
        assert cache.read(100 * 4, 100 * 4) == 77
        assert counters.read_misses == 1
        assert cache.read(100 * 4, 100 * 4) == 77
        assert counters.read_hits == 1

    def test_write_back_only_on_eviction(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 42)
        assert mem.read_word(0) == 0          # write-back: memory stale
        # Evict by touching a conflicting line (same set, way span apart).
        span = cache.geo.way_span
        cache.read(span, span)                # same index, different tag
        assert mem.read_word(0) == 42         # victim written back
        assert counters.write_backs == 1

    def test_fill_brings_whole_line(self):
        cache, mem, clock, counters = make_cache()
        mem.write_word(0, 10)
        mem.write_word(4, 11)
        cache.read(0, 0)
        assert cache.read(4, 4) == 11
        assert counters.read_misses == 1
        assert counters.read_hits == 1

    def test_virtual_index_physical_tag_alias_duplication(self):
        # The same physical word read through two unaligned virtual
        # addresses occupies two cache lines — the central hazard.
        cache, mem, clock, counters = make_cache()
        mem.write_word(0, 5)
        va2 = PAGE  # different cache page, same page offset
        cache.read(0, 0)
        cache.read(va2, 0)
        assert cache.resident_lines(0, 0) == 1
        assert cache.resident_lines(1, 0) == 1

    def test_aligned_alias_hits_the_same_line(self):
        # Aligned aliases resolve in the cache without going to memory
        # (physically tagged, Section 2.2).
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 9)
        span = cache.geo.way_span
        assert cache.read(span, 0) == 9       # aligned alias: same set+tag
        assert counters.read_hits == 1
        assert counters.read_misses == 0

    def test_stale_read_through_unaligned_alias_without_management(self):
        # Without consistency management the second alias sees old memory:
        # the hazard the whole paper exists to manage.
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 123)                # dirty in cache page 0
        assert cache.read(PAGE, 0) == 0       # unaligned alias reads stale 0

    def test_mismatched_page_offset_rejected(self):
        cache, mem, clock, counters = make_cache()
        with pytest.raises(Exception):
            cache.read(4, 8)


class TestFlushPurge:
    def test_flush_writes_back_and_invalidates(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 55)
        hits = cache.flush_page_frame(0, 0, Reason.EXPLICIT)
        assert hits == 1
        assert mem.read_word(0) == 55
        assert cache.resident_lines(0, 0) == 0

    def test_purge_discards_dirty_data(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 55)
        cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        assert mem.read_word(0) == 0          # dirty data discarded
        assert cache.resident_lines(0, 0) == 0

    def test_flush_targets_only_the_matching_physical_page(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 1)                      # frame 0 via cache page 0
        cache.write(PAGE, PAGE, 2)                # frame 1 via cache page 1
        cache.flush_page_frame(0, PAGE, Reason.EXPLICIT)  # frame 1 at cp 0: none
        assert cache.resident_lines(0, 0) == 1    # frame 0 untouched

    def test_flush_of_absent_page_is_cheap(self):
        cache, mem, clock, counters = make_cache()
        cost = CostModel()
        cache.write(0, 0, 1)
        before = clock.cycles
        cache.flush_page_frame(2, 0, Reason.EXPLICIT)   # nothing resident
        cheap = clock.cycles - before
        before = clock.cycles
        cache.flush_page_frame(0, 0, Reason.EXPLICIT)   # one resident line
        expensive = clock.cycles - before
        assert expensive > cheap

    def test_fully_resident_flush_costs_about_seven_times_absent(self):
        cache, mem, clock, counters = make_cache()
        cache.write_page(0, 0, np.arange(1024, dtype=np.uint64))
        before = clock.cycles
        # flush cost only (write-back cycles counted separately per line)
        hits = cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        resident_cost = clock.cycles - before
        assert hits == cache.geo.lines_per_page
        before = clock.cycles
        cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        absent_cost = clock.cycles - before
        assert resident_cost == 7 * absent_cost

    def test_icache_purge_constant_time(self):
        cache, mem, clock, counters = make_cache(is_icache=True)
        cache.read_page(0, 0)
        before = clock.cycles
        cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        full = clock.cycles - before
        before = clock.cycles
        cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        empty = clock.cycles - before
        assert full == empty == CostModel().icache_purge_page

    def test_flush_purge_counters_tagged_by_reason(self):
        cache, mem, clock, counters = make_cache()
        cache.flush_page_frame(0, 0, Reason.DMA_READ)
        cache.purge_page_frame(1, 0, Reason.NEW_MAPPING)
        assert counters.total_flushes("dcache", Reason.DMA_READ) == 1
        assert counters.total_purges("dcache", Reason.NEW_MAPPING) == 1


class TestPageOps:
    def test_write_page_then_read_page(self):
        cache, mem, clock, counters = make_cache()
        values = np.arange(1024, dtype=np.uint64) + 7
        cache.write_page(0, 0, values)
        assert np.array_equal(cache.read_page(0, 0), values)

    def test_write_page_is_write_back(self):
        cache, mem, clock, counters = make_cache()
        values = np.ones(1024, dtype=np.uint64)
        cache.write_page(0, 0, values)
        assert not mem.read_page(0).any()     # memory not yet updated
        cache.flush_page_frame(0, 0, Reason.EXPLICIT)
        assert np.array_equal(mem.read_page(0), values)

    def test_write_page_evicts_dirty_victims(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 42)                 # dirty line, frame 0, cp 0
        span = cache.geo.way_span
        # write frame 4 through an aligned window (cache page 0)
        cache.write_page(0, 4 * PAGE, np.zeros(1024, dtype=np.uint64))
        assert mem.read_word(0) == 42         # victim reached memory

    def test_page_ops_equivalent_to_word_loops(self):
        cache_a, mem_a, _, _ = make_cache()
        cache_b, mem_b, _, _ = make_cache()
        values = np.arange(1024, dtype=np.uint64) * 3
        cache_a.write_page(PAGE, PAGE, values)
        for i in range(1024):
            cache_b.write(PAGE + 4 * i, PAGE + 4 * i, int(values[i]))
        got_a = cache_a.read_page(PAGE, PAGE)
        got_b = np.array([cache_b.read(PAGE + 4 * i, PAGE + 4 * i)
                          for i in range(1024)], dtype=np.uint64)
        assert np.array_equal(got_a, got_b)
        # and the same physical state after flushing
        cache_a.flush_page_frame(1, PAGE, Reason.EXPLICIT)
        cache_b.flush_page_frame(1, PAGE, Reason.EXPLICIT)
        assert np.array_equal(mem_a.read_page(1), mem_b.read_page(1))

    def test_zero_page(self):
        cache, mem, clock, counters = make_cache()
        cache.write_page(0, 0, np.ones(1024, dtype=np.uint64))
        cache.zero_page(0, 0)
        assert not cache.read_page(0, 0).any()

    def test_read_page_mixes_cached_dirty_and_memory_lines(self):
        cache, mem, clock, counters = make_cache()
        mem.write_page(0, np.full(1024, 5, dtype=np.uint64))
        cache.write(0, 0, 9)                   # one dirty line on top
        page = cache.read_page(0, 0)
        assert page[0] == 9                    # cached dirty value
        assert page[100] == 5                  # filled from memory


#: the page-frame entry points, each given (cache, va, pa) of one page.
PAGE_ENTRY_POINTS = {
    "read_page": lambda c, va, pa: c.read_page(va, pa),
    "write_page": lambda c, va, pa: c.write_page(
        va, pa, np.ones(1024, dtype=np.uint64)),
    "zero_page": lambda c, va, pa: c.zero_page(va, pa),
    "flush_page_frame": lambda c, va, pa: c.flush_page_frame(
        c.cache_page_of(va, pa), pa),
    "purge_page_frame": lambda c, va, pa: c.purge_page_frame(
        c.cache_page_of(va, pa), pa),
    "read_run": lambda c, va, pa: c.read_run(va, pa, 1024),
    "write_run": lambda c, va, pa: c.write_run(
        va, pa, np.ones(1024, dtype=np.uint64)),
}


class TestFramesOutOfRange:
    """A page beyond physical memory is an :class:`AddressError` raised
    before any array, the memory or the clock changes."""

    CELLS = {
        "direct": {},
        "physical": {"physically_indexed": True},
        "write-through": {"write_through": True},
        "2way": {"associativity": 2},
        "hierarchy": {"hierarchy": True},
    }

    @staticmethod
    def make(cell):
        opts = dict(TestFramesOutOfRange.CELLS[cell])
        with_hierarchy = opts.pop("hierarchy", False)
        mem = PhysicalMemory(num_pages=4, page_size=PAGE)
        clock, counters = Clock(), Counters()
        hierarchy = None
        if with_hierarchy:
            hierarchy = CacheHierarchy(
                mem, CostModel(), clock, counters, 32, victim_lines=8,
                l2=L2Geometry(size=8 * 1024, line_size=32, associativity=2))
        cache = Cache(CacheGeometry(size=16 * 1024, **opts), mem,
                      CostModel(), clock, counters, hierarchy=hierarchy)
        # dirty lines in every set, so a victim write-back would show
        for i in range(1024):
            cache.write(16 * i, 16 * i % (4 * PAGE), i + 1)
        return cache

    @staticmethod
    def state(cache):
        return (cache._tags.tolist(), cache._dirty.tolist(),
                cache._data.tolist(), cache._lru.tolist(), cache._tick,
                cache.memory._words.tolist(), cache.clock.cycles,
                cache.counters.snapshot())

    @pytest.mark.parametrize("entry", sorted(PAGE_ENTRY_POINTS))
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_rejected_before_any_change(self, cell, entry):
        cache = self.make(cell)
        before = self.state(cache)
        pa = 4 * PAGE                     # one past the last frame
        with pytest.raises(AddressError, match="out of range"):
            PAGE_ENTRY_POINTS[entry](cache, 4 * PAGE, pa)
        assert self.state(cache) == before

    @pytest.mark.parametrize("entry", sorted(PAGE_ENTRY_POINTS))
    def test_last_frame_accepted(self, entry):
        cache = self.make("direct")
        PAGE_ENTRY_POINTS[entry](cache, 3 * PAGE, 3 * PAGE)


class TestEmptyAndNegativeRuns:
    """A run of no words is the word loop of no words: it changes
    nothing.  A negative length raises before any change."""

    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_zero_words_change_nothing(self, cell):
        cache = TestFramesOutOfRange.make(cell)
        before = TestFramesOutOfRange.state(cache)
        # Set 0 holds frame 0's dirty line; the runs name frame 1's.
        got = cache.read_run(0, PAGE, 0)
        cache.write_run(0, PAGE, np.empty(0, dtype=np.uint64))
        cache.write_run(0, PAGE, [])
        assert got.dtype == np.uint64 and got.size == 0
        # Probes and snoops of no words, at a page start and mid-page,
        # over frame 0's resident dirty lines: nothing found, nothing
        # written back or invalidated.
        for vaddr in (0, 32):
            assert cache.probe_run(vaddr, vaddr, 0) == (0, 0)
            assert cache.snoop_run(vaddr, vaddr, 0, invalidate=True) == (0, 0)
        assert TestFramesOutOfRange.state(cache) == before

    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_negative_length_rejected_before_any_change(self, cell):
        cache = TestFramesOutOfRange.make(cell)
        before = TestFramesOutOfRange.state(cache)
        for run in (lambda: cache.read_run(0, PAGE, -1),
                    lambda: cache.probe_run(32, 32, -1),
                    lambda: cache.snoop_run(32, 32, -1, invalidate=True)):
            with pytest.raises(AddressError, match="must be non-negative"):
                run()
        assert TestFramesOutOfRange.state(cache) == before


# Every word-granular entry point at (vaddr, paddr): the word read and
# write, and runs inside one line, crossing a line, and many lines long.
# A good pair is word 2 of a line, so a 3-word run stays in the line.
WORD_ENTRY_POINTS = {
    "read": lambda c, va, pa: c.read(va, pa),
    "write": lambda c, va, pa: c.write(va, pa, 5),
    "read_run-one-line": lambda c, va, pa: c.read_run(va, pa, 3),
    "read_run-crossing": lambda c, va, pa: c.read_run(va, pa, 8),
    "read_run-long": lambda c, va, pa: c.read_run(va, pa, 64),
    "write_run-one-line": lambda c, va, pa: c.write_run(va, pa, [1, 2, 3]),
    "write_run-crossing": lambda c, va, pa: c.write_run(
        va, pa, np.arange(8, dtype=np.uint64)),
    "write_run-long": lambda c, va, pa: c.write_run(
        va, pa, np.arange(64, dtype=np.uint64)),
}
GOOD = PAGE + 8
BAD_PAIRS = {
    "misaligned-vaddr": (GOOD + 2, GOOD,
                         "cache word access must be word aligned"),
    "misaligned-paddr": (GOOD, GOOD + 2,
                         "cache word access must be word aligned"),
    "offset-mismatch": (GOOD, GOOD + 4, "virtual and physical addresses "
                        "must share the page offset"),
}


# Every run entry point with a run from 8 bytes before the end of page 0:
# four words cross into page 1.
CROSSING_RUNS = {
    "read_run": lambda c, a: c.read_run(a, a, 4),
    "write_run": lambda c, a: c.write_run(a, a,
                                          np.arange(4, dtype=np.uint64)),
    "probe_run": lambda c, a: c.probe_run(a, a, 4),
    "snoop_run": lambda c, a: c.snoop_run(a, a, 4, invalidate=True),
}


class TestAddressErrorParity:
    """Every word-granular entry point rejects a bad address pair with
    the same :class:`AddressError`, before any change."""

    @pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
    @pytest.mark.parametrize("entry", sorted(WORD_ENTRY_POINTS))
    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_same_error_before_any_change(self, cell, entry, bad):
        cache = TestFramesOutOfRange.make(cell)
        before = TestFramesOutOfRange.state(cache)
        vaddr, paddr, message = BAD_PAIRS[bad]
        with pytest.raises(AddressError) as info:
            WORD_ENTRY_POINTS[entry](cache, vaddr, paddr)
        assert str(info.value) == message
        assert TestFramesOutOfRange.state(cache) == before

    @pytest.mark.parametrize("entry", sorted(WORD_ENTRY_POINTS))
    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_good_pair_accepted(self, cell, entry):
        WORD_ENTRY_POINTS[entry](TestFramesOutOfRange.make(cell), GOOD, GOOD)

    @pytest.mark.parametrize("entry", sorted(CROSSING_RUNS))
    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_run_crossing_a_page_rejected_before_any_change(self, cell,
                                                             entry):
        cache = TestFramesOutOfRange.make(cell)
        before = TestFramesOutOfRange.state(cache)
        with pytest.raises(AddressError) as info:
            CROSSING_RUNS[entry](cache, PAGE - 8)
        assert str(info.value) == "a cache run must stay within one page"
        assert TestFramesOutOfRange.state(cache) == before


class TestWordBeyondMemory:
    """A word-granular access to a frame beyond physical memory is an
    :class:`AddressError` raised on the miss path before the miss is
    counted or a victim is written back, so no wrong tag is left behind
    for a later access to hit."""

    @pytest.mark.parametrize("entry", sorted(WORD_ENTRY_POINTS))
    @pytest.mark.parametrize("cell", sorted(TestFramesOutOfRange.CELLS))
    def test_rejected_before_any_change(self, cell, entry):
        cache = TestFramesOutOfRange.make(cell)
        before = TestFramesOutOfRange.state(cache)
        with pytest.raises(AddressError, match="out of range"):
            WORD_ENTRY_POINTS[entry](cache, GOOD, 4 * PAGE + 8)
        assert TestFramesOutOfRange.state(cache) == before

    def test_failed_store_leaves_no_tag_to_hit(self):
        mem = PhysicalMemory(num_pages=4, page_size=PAGE)
        clock, counters = Clock(), Counters()
        cache = Cache(CacheGeometry(size=16 * 1024), mem, CostModel(),
                      clock, counters)
        cache.write(0, 0, 5)
        before = TestFramesOutOfRange.state(cache)
        with pytest.raises(AddressError, match="out of range"):
            cache.write(0, 0x4000, 7)
        assert TestFramesOutOfRange.state(cache) == before
        with pytest.raises(AddressError, match="out of range"):
            cache.read(0, 0x4000)
        assert cache.read(0, 0) == 5


class TestWriteThrough:
    def test_stores_reach_memory_immediately(self):
        cache, mem, clock, counters = make_cache(write_through=True)
        cache.write(0, 0, 11)
        assert mem.read_word(0) == 11

    def test_no_dirty_lines_ever(self):
        cache, mem, clock, counters = make_cache(write_through=True)
        cache.write(0, 0, 11)
        cache.write_page(PAGE, PAGE, np.ones(1024, dtype=np.uint64))
        assert cache.dirty_cache_pages(0) == []
        assert cache.dirty_cache_pages(PAGE) == []

    def test_page_write_through(self):
        cache, mem, clock, counters = make_cache(write_through=True)
        values = np.arange(1024, dtype=np.uint64)
        cache.write_page(0, 0, values)
        assert np.array_equal(mem.read_page(0), values)


class TestPhysicallyIndexed:
    def test_aliases_always_align(self):
        cache, mem, clock, counters = make_cache(physically_indexed=True)
        cache.write(0, 0, 31)
        # A wildly different virtual address still hits: index from paddr.
        assert cache.read(5 * PAGE, 0) == 31
        assert counters.read_hits == 1


class TestSetAssociative:
    def test_two_way_holds_two_conflicting_lines(self):
        cache, mem, clock, counters = make_cache(size=16 * 1024, assoc=2)
        span = cache.geo.way_span
        cache.write(0, 0, 1)
        cache.write(span, span, 2)            # same set, other way
        assert cache.read(0, 0) == 1          # still resident
        assert cache.read(span, span) == 2
        assert counters.write_backs == 0

    def test_lru_eviction(self):
        cache, mem, clock, counters = make_cache(size=16 * 1024, assoc=2)
        span = cache.geo.way_span
        cache.write(0, 0, 1)
        cache.write(span, span, 2)
        cache.read(0, 0)                      # make way 0 most recent
        cache.read(2 * span, 2 * span)        # evicts the LRU (tag span)
        assert mem.read_word(span) == 2       # victim written back

    def test_physical_tag_unique_within_set(self):
        # Hardware invariant Section 3.3 relies on: at most one copy of a
        # physical line per set.
        cache, mem, clock, counters = make_cache(size=16 * 1024, assoc=2)
        cache.write(0, 0, 1)
        cache.write(0, 0, 2)                  # same line again
        assert cache.resident_lines(0, 0) == 1

    def test_page_ops_work_associative(self):
        cache, mem, clock, counters = make_cache(size=16 * 1024, assoc=2)
        values = np.arange(1024, dtype=np.uint64)
        cache.write_page(0, 0, values)
        assert np.array_equal(cache.read_page(0, 0), values)
        cache.flush_page_frame(0, 0, Reason.EXPLICIT)
        assert np.array_equal(mem.read_page(0), values)


class TestLostWriteBackHazard:
    def test_doubly_dirty_alias_loses_a_write_without_management(self):
        # Section 2.2: "Writes can also be lost if a physical address is
        # dirty in more than one cache line."  Demonstrate the hazard the
        # management layer prevents.
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 111)        # dirty in cache page 0
        cache.write(PAGE, 0, 222)     # dirty in cache page 1 (same paddr!)
        cache.flush_page_frame(1, 0, Reason.EXPLICIT)   # newer value lands
        cache.flush_page_frame(0, 0, Reason.EXPLICIT)   # older overwrites it
        assert mem.read_word(0) == 111  # the newer write (222) was lost


class TestInspection:
    def test_invalidate_all(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 1)
        cache.invalidate_all()
        assert cache.resident_lines(0, 0) == 0

    def test_dirty_cache_pages(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 1)
        cache.write(2 * PAGE, PAGE, 1)
        assert cache.dirty_cache_pages(0) == [0]
        assert cache.dirty_cache_pages(PAGE) == [2]

    def test_line_value(self):
        cache, mem, clock, counters = make_cache()
        cache.write(0, 0, 77)
        line = cache.line_value(0, 0, 0)
        assert line is not None
        assert line[0] == 77
        assert cache.line_value(1, 0, 0) is None
