"""Tests for the lower cache hierarchy (victim cache and unified L2).

The hierarchy's correctness argument is the clean-copy invariant: every
line resident below the L1s equals *current physical memory*, so a fill
served from the victim cache or the L2 is bit-for-bit what a memory fill
would return and Table 2 is untouched (Section 3.3).  These tests pin
the mechanisms that maintain it — FIFO/LRU replacement determinism, the
per-line epoch guard against capturing stale-but-clean lines, the
per-source cycle charges — and prove the degenerate hierarchy is
bit-identical to the seed simulator.
"""

import numpy as np
import pytest

from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy, L2Cache, VictimCache
from repro.hw.params import CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason
from tests.hw.cache_helpers import hierarchy_tags, l2_tags, victim_tags

PAGE = 4096
LINE = 32
WPL = LINE // 4


def line(v) -> np.ndarray:
    return np.full(WPL, v, dtype=np.uint64)


def make_hierarchy(victim_lines=0, l2=None, num_pages=32):
    mem = PhysicalMemory(num_pages=num_pages, page_size=PAGE)
    clock = Clock()
    counters = Counters()
    hierarchy = CacheHierarchy(mem, CostModel(), clock, counters, LINE,
                               victim_lines=victim_lines, l2=l2)
    return hierarchy, mem, clock, counters


def make_cache(size=16 * 1024, assoc=1, victim_lines=0, l2=None,
               write_through=False):
    geo = CacheGeometry(size=size, associativity=assoc,
                        write_through=write_through)
    mem = PhysicalMemory(num_pages=32, page_size=PAGE)
    clock = Clock()
    counters = Counters()
    hierarchy = CacheHierarchy(mem, CostModel(), clock, counters, LINE,
                               victim_lines=victim_lines, l2=l2)
    cache = Cache(geo, mem, CostModel(), clock, counters, name="dcache",
                  hierarchy=hierarchy)
    return cache, hierarchy, mem, clock, counters


class TestVictimCache:
    def test_capture_take_roundtrip_copies(self):
        vc = VictimCache(4, WPL)
        data = line(7)
        vc.capture(10, data)
        data[:] = 0                               # caller's buffer reused
        taken = vc.take(10)
        assert taken is not None and taken[0] == 7
        assert vc.take(10) is None                # a hit removes the entry

    def test_fifo_eviction_order(self):
        vc = VictimCache(2, WPL)
        vc.capture(1, line(1))
        vc.capture(2, line(2))
        vc.capture(3, line(3))                    # evicts 1, the oldest
        assert victim_tags(vc) == [2, 3]
        vc.capture(4, line(4))                    # evicts 2
        assert victim_tags(vc) == [3, 4]

    def test_recapture_refreshes_data_but_not_queue_position(self):
        vc = VictimCache(2, WPL)
        vc.capture(1, line(1))
        vc.capture(2, line(2))
        vc.capture(1, line(9))                    # refresh, still oldest
        assert vc.take(1)[0] == 9
        vc.capture(1, line(1))
        vc.capture(3, line(3))                    # 2 is oldest now? no: 2
        # queue after the take+capture is [2, 1]; capturing 3 evicts 2.
        assert sorted(victim_tags(vc)) == [1, 3]

    def test_zero_lines_is_inert(self):
        vc = VictimCache(0, WPL)
        vc.capture(1, line(1))
        assert len(vc) == 0 and vc.take(1) is None

    def test_invalidate_range(self):
        vc = VictimCache(4, WPL)
        for tag in (5, 6, 9):
            vc.capture(tag, line(tag))
        vc.invalidate_range(5, 6)
        assert victim_tags(vc) == [9]


class TestL2Cache:
    GEO = L2Geometry(size=4 * 1024, line_size=LINE, associativity=2)

    def test_lookup_returns_copy(self):
        l2 = L2Cache(self.GEO, WPL)
        l2.insert(3, line(3))
        got = l2.lookup(3)
        got[:] = 0
        assert l2.lookup(3)[0] == 3

    def test_insert_fills_lowest_empty_way_then_lru(self):
        l2 = L2Cache(self.GEO, WPL)
        sets = self.GEO.num_sets
        a, b, c = 7, 7 + sets, 7 + 2 * sets       # all map to set 7
        l2.insert(a, line(1))
        l2.insert(b, line(2))
        assert l2._tags[0, 7] == a and l2._tags[1, 7] == b
        l2.lookup(a)                              # touch a; b becomes LRU
        l2.insert(c, line(3))                     # evicts b
        assert l2.lookup(b) is None
        assert l2.lookup(a)[0] == 1 and l2.lookup(c)[0] == 3

    def test_insert_refreshes_in_place(self):
        l2 = L2Cache(self.GEO, WPL)
        l2.insert(3, line(1))
        l2.insert(3, line(2))
        assert l2_tags(l2) == [3]
        assert l2.lookup(3)[0] == 2

    def test_invalidate_range(self):
        l2 = L2Cache(self.GEO, WPL)
        for tag in (1, 2, 300):
            l2.insert(tag, line(tag))
        l2.invalidate_range(1, 2)
        assert l2_tags(l2) == [300]


class TestFetchLineCharging:
    def test_memory_fill_charges_line_fill_and_feeds_l2(self):
        l2 = L2Geometry(size=4 * 1024, line_size=LINE, associativity=2)
        h, mem, clock, counters = make_hierarchy(victim_lines=2, l2=l2)
        mem.write_word(0, 42)
        before = clock.cycles
        got = h.fetch_line(0)
        assert got[0] == 42
        assert clock.cycles - before == CostModel().line_fill
        assert counters.l2_fills == 1

    def test_victim_beats_l2_beats_memory(self):
        l2 = L2Geometry(size=4 * 1024, line_size=LINE, associativity=2)
        h, mem, clock, counters = make_hierarchy(victim_lines=2, l2=l2)
        h.fetch_line(5)                           # memory fill; now in L2
        before = clock.cycles
        h.fetch_line(5)                           # L2 hit
        assert clock.cycles - before == CostModel().l2_hit
        assert counters.l2_hits == 1
        h.capture(5, line(9))                     # victim holds it too
        before = clock.cycles
        got = h.fetch_line(5)                     # victim hit wins
        assert clock.cycles - before == CostModel().victim_hit
        assert counters.victim_hits == 1
        assert got[0] == 9

    def test_capture_prefers_victim_else_l2(self):
        h, _, _, counters = make_hierarchy(victim_lines=2)
        h.capture(1, line(1))
        assert counters.victim_captures == 1
        assert hierarchy_tags(h) == {"victim": [1]}
        l2 = L2Geometry(size=4 * 1024, line_size=LINE, associativity=2)
        h2, _, _, _ = make_hierarchy(l2=l2)
        h2.capture(1, line(1))
        assert hierarchy_tags(h2) == {"l2": [1]}

    def test_note_memory_write_bumps_epoch_and_drops_copies(self):
        l2 = L2Geometry(size=4 * 1024, line_size=LINE, associativity=2)
        h, _, _, _ = make_hierarchy(victim_lines=2, l2=l2)
        h.capture(3, line(3))
        h.fetch_line(4)                           # 4 lands in the L2
        assert h.epoch_of(3) == 0
        h.note_memory_write(3)
        h.note_memory_write(4)
        assert h.epoch_of(3) == 1
        assert hierarchy_tags(h) == {"victim": [], "l2": []}

    def test_invalidate_page_and_span_cover_the_right_lines(self):
        h, _, _, _ = make_hierarchy(victim_lines=8)
        lpp = PAGE // LINE
        h.invalidate_page(2)
        assert h.epoch_of(2 * lpp) == 1
        assert h.epoch_of(3 * lpp - 1) == 1
        assert h.epoch_of(3 * lpp) == 0
        h.invalidate_span(2 * PAGE, 1)            # one word: first line only
        assert h.epoch_of(2 * lpp) == 2
        assert h.epoch_of(2 * lpp + 1) == 1


class TestCacheIntegration:
    def test_evicted_clean_line_victim_hits_with_correct_data(self):
        cache, h, mem, clock, counters = make_cache(victim_lines=4)
        mem.write_word(0, 42)
        cache.read(0, 0)                          # fill
        span = cache.geo.way_span
        cache.read(span, span)                    # conflict evicts tag 0
        assert counters.victim_captures == 1
        before = clock.cycles
        assert cache.read(0, 0) == 42             # victim supplies it
        assert counters.victim_hits == 1
        assert clock.cycles - before == CostModel().victim_hit

    def test_dirty_eviction_writes_back_then_captures_current_line(self):
        cache, h, mem, clock, counters = make_cache(victim_lines=4)
        cache.write(0, 0, 7)                      # dirty line, tag 0
        span = cache.geo.way_span
        cache.read(span, span)                    # evict: write-back+capture
        assert mem.read_word(0) == 7
        assert counters.victim_captures == 1
        assert cache.read(0, 0) == 7
        assert counters.victim_hits == 1

    def test_epoch_guard_blocks_capturing_a_stale_clean_alias(self):
        # The lazy-purge hazard: a clean resident copy of line T goes
        # stale when a dirty alias of T (in a different cache page) is
        # written back.  The write-back bumps T's epoch, so the stale
        # copy's fill stamp no longer matches and eviction must NOT
        # capture it — a victim cache is invisible to virtual purges.
        cache, h, mem, clock, counters = make_cache(victim_lines=4)
        page_span = cache.geo.page_size
        cache.read(0, 0)                          # clean copy, color 0
        cache.write(page_span, 0, 99)             # dirty alias, color 1
        # Evict the dirty alias: write-back makes memory 99, epoch bumps.
        cache.read(page_span + cache.geo.way_span, page_span)
        assert mem.read_word(0) == 99
        # Now evict the stale clean copy at color 0: must not be captured.
        cache.read(cache.geo.way_span, cache.geo.way_span)
        resident = hierarchy_tags(h)["victim"]
        for tag in resident:
            taken = h.victim._lines[tag]
            assert taken[0] == np.uint64(mem.read_line(
                tag * LINE, WPL)[0]), \
                f"victim holds a stale copy of line {tag}"
        # A re-read of the line sees current memory, not the stale data.
        assert cache.read(0, 0) == 99

    def test_lost_writeback_snoop_poisons_the_line_against_capture(self):
        # snoop(write_back=False) models an injected lost coherence
        # write-back: the line is marked clean while disagreeing with
        # memory.  Its stamp is poisoned so eviction can never capture it.
        cache, h, mem, clock, counters = make_cache(victim_lines=4)
        cache.write(0, 0, 7)
        set_idx = cache.geo.set_index(0)
        assert cache.snoop(set_idx, 0, invalidate=False,
                           write_back=False) == "dirty"
        assert mem.read_word(0) == 0              # the write-back was lost
        cache.read(cache.geo.way_span, cache.geo.way_span)  # evict tag 0
        assert hierarchy_tags(h)["victim"] == []  # corrupt line not kept

    def test_write_through_store_restamps_and_drops_lower_copies(self):
        cache, h, mem, clock, counters = make_cache(victim_lines=4,
                                                    write_through=True)
        cache.read(0, 0)
        span = cache.geo.way_span
        cache.read(span, span)                    # evict tag 0 -> victim
        assert hierarchy_tags(h)["victim"] == [0]
        cache.write(4, 4, 5)                      # wt store to line 0
        # The write-allocate fill took line 0 out of the victim cache
        # (capturing the clean line it displaced); the store then went
        # straight to memory, and no stale copy of line 0 remains below.
        assert 0 not in hierarchy_tags(h)["victim"]
        assert mem.read_word(4) == 5
        # The resident victim line still equals memory (clean-copy
        # invariant held across the write-through store).
        for tag in hierarchy_tags(h)["victim"]:
            assert np.array_equal(h.victim._lines[tag],
                                  mem.read_line(tag * LINE, WPL))


class TestDegenerateHierarchyBitIdentity:
    """A hierarchy with no victim lines and no L2 charges and behaves
    exactly like the seed simulator (fetch = memory fill at line_fill).
    The machine never builds this configuration (``has_hierarchy`` is
    False), but its bit-identity is the base case of the soundness
    argument, so it is pinned here."""

    def _drive(self, cache, mem):
        observed = []
        span = cache.geo.way_span
        for i in range(6):
            cache.write(i * 4, i * 4, i + 1)
        for i in range(6):
            observed.append(cache.read(i * 4 + span, i * 4 + span))
            observed.append(cache.read(i * 4, i * 4))
        cache.flush_page_frame(0, 0, Reason.EXPLICIT)
        cache.purge_page_frame(0, 0, Reason.EXPLICIT)
        for i in range(6):
            observed.append(cache.read(i * 4, i * 4))
        return observed

    def test_values_cycles_counters_and_memory_match_bare_cache(self):
        geo = CacheGeometry(size=16 * 1024)
        results = []
        for degenerate in (False, True):
            mem = PhysicalMemory(num_pages=32, page_size=PAGE)
            clock = Clock()
            counters = Counters()
            hierarchy = (CacheHierarchy(mem, CostModel(), clock, counters,
                                        LINE) if degenerate else None)
            cache = Cache(geo, mem, CostModel(), clock, counters,
                          name="dcache", hierarchy=hierarchy)
            observed = self._drive(cache, mem)
            results.append((observed, clock.cycles, counters.snapshot(),
                            mem.read_page(0)))
        bare, degenerate = results
        assert bare[0] == degenerate[0]
        assert bare[1] == degenerate[1]
        assert bare[2] == degenerate[2]
        assert np.array_equal(bare[3], degenerate[3])


class TestLruDeterminism:
    """Regression: the documented ``_victim_way`` policy — lowest-numbered
    invalid way first, then strict LRU (the stamps are unique, so argmin
    is unambiguous).  Pinned at 2 and 4 ways; a change to fill order or
    tick assignment shows up here as a different eviction sequence."""

    def _fill_order(self, assoc, touches):
        geo = CacheGeometry(size=16 * 1024, associativity=assoc)
        mem = PhysicalMemory(num_pages=64, page_size=PAGE)
        cache = Cache(geo, mem, CostModel(), Clock(), Counters(),
                      name="dcache")
        span = geo.way_span
        order = []
        for step in touches:
            before = {int(t) for t in cache._tags[:, 0] if t != -1}
            cache.read(step * span, step * span)   # same set, distinct tags
            after = {int(t) for t in cache._tags[:, 0] if t != -1}
            evicted = before - after
            order.append(int(evicted.pop()) if evicted else None)
        return order, [int(t) for t in cache._tags[:, 0]]

    def test_two_way_eviction_order(self):
        span_lines = CacheGeometry(size=16 * 1024,
                                   associativity=2).way_span // LINE
        # Fill ways 0,1 with tags 0,1; touch 0; fill 2 evicts 1 (LRU);
        # fill 3 evicts 0.
        order, tags = self._fill_order(2, [0, 1, 0, 2, 3])
        assert order == [None, None, None, 1 * span_lines, 0]
        assert tags == [3 * span_lines, 2 * span_lines]

    def test_four_way_eviction_order(self):
        span_lines = CacheGeometry(size=16 * 1024,
                                   associativity=4).way_span // LINE
        # Fill ways 0..3 in index order (invalid ways claimed lowest
        # first), touch 1 and 0, then two conflict fills evict 2 then 3.
        order, tags = self._fill_order(4, [0, 1, 2, 3, 1, 0, 4, 5])
        assert order == [None, None, None, None, None, None,
                         2 * span_lines, 3 * span_lines]
        assert tags == [0, 1 * span_lines, 4 * span_lines, 5 * span_lines]


class TestGeometryValidation:
    def test_l2_line_size_must_match_the_l1(self):
        from repro.errors import ConfigurationError
        from repro.hw.params import MachineConfig
        with pytest.raises(ConfigurationError):
            MachineConfig(l2=L2Geometry(line_size=64))

    def test_l2_geometry_rejects_non_power_of_two(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            L2Geometry(size=100 * 1000)

    def test_victim_lines_must_be_non_negative(self):
        from repro.errors import ConfigurationError
        from repro.hw.params import MachineConfig
        with pytest.raises(ConfigurationError):
            MachineConfig(victim_lines=-1)
