"""Property-based tests for the cache-hierarchy matrix.

Two families, mirroring :mod:`tests.properties.test_prop_smp`:

* every hierarchy configuration (N-way L1, victim cache, L2, alone and
  combined, write-back and write-through) returns the same values as a
  flat physical-memory oracle under random op sequences that include the
  paper's fault surface — coherence snoops and DMA writes behind the
  caches, each followed by the software protocol the paper prescribes;
* the degenerate configuration (1-way, no victim, no L2) is bit-identical
  to the seed direct-mapped simulator — values, memory image, cycles,
  and the full counter snapshot (the cluster-of-one pattern).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters
from tests.hw.cache_helpers import hierarchy_tags

PAGE = 4096
LINE = 32

#: the configuration matrix: (size, associativity, write_through,
#: victim lines, l2 geometry?).  Each way must span whole pages, so the
#: 4-way L1 is 16 KiB (way span == one page, the minimum legal shape).
CONFIGS = {
    "2way": (8 * 1024, 2, False, 0, None),
    "4way": (16 * 1024, 4, False, 0, None),
    "victim8": (8 * 1024, 1, False, 8, None),
    "l2": (8 * 1024, 1, False, 0,
           L2Geometry(size=8 * 1024, associativity=2)),
    "2way+victim4+l2": (8 * 1024, 2, False, 4,
                        L2Geometry(size=8 * 1024, associativity=2)),
    "wt+victim8": (8 * 1024, 1, True, 8, None),
}


def build(name):
    size, assoc, wt, victim, l2 = CONFIGS[name]
    geo = CacheGeometry(size=size, associativity=assoc,
                        write_through=wt)
    mem = PhysicalMemory(8, PAGE)
    clock, counters = Clock(), Counters()
    hierarchy = CacheHierarchy(mem, CostModel(), clock, counters, LINE,
                               victim_lines=victim, l2=l2)
    cache = Cache(geo, mem, CostModel(), clock, counters, name="dcache",
                  hierarchy=hierarchy)
    return cache, hierarchy, mem


# Ops stay within physical page 0; vaddr aliases the paddr through one of
# three way-span-aligned windows so conflict evictions (the traffic that
# exercises the victim cache and L2) happen constantly.  "snoop" and
# "dma" are the armed faults: a coherence invalidation of the addressed
# line, and a memory write behind the caches — each applied with the
# value-preserving protocol the paper requires (write-back before
# discard; flush + purge + lower-level invalidate around DMA).
ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "read_run", "write_run",
                               "flush", "snoop", "dma"]),
              st.integers(0, 255),      # word within the physical page
              st.integers(0, 2),        # aliasing window
              st.integers(0, 2**30)),   # value / run length seed
    min_size=1, max_size=60)


def flush_frame_everywhere(cache):
    for cache_page in range(cache.geo.num_cache_pages):
        cache.flush_page_frame(cache_page, 0)


def purge_frame_everywhere(cache):
    for cache_page in range(cache.geo.num_cache_pages):
        cache.purge_page_frame(cache_page, 0)


def drive_against_oracle(cache, hierarchy, mem, op_list):
    oracle = {}
    span = cache.geo.way_span
    for op, word, window, value in op_list:
        paddr = word * 4
        vaddr = paddr + window * span
        if op == "read":
            assert cache.read(vaddr, paddr) == oracle.get(paddr, 0)
        elif op == "write":
            cache.write(vaddr, paddr, value)
            oracle[paddr] = value
        elif op == "read_run":
            n = 1 + value % 8
            n = min(n, (PAGE - paddr) // 4)
            got = cache.read_run(vaddr, paddr, n)
            assert [int(v) for v in got] \
                == [oracle.get(paddr + i * 4, 0) for i in range(n)]
        elif op == "write_run":
            values = [value, value ^ 1, value ^ 2]
            values = values[:max(1, (PAGE - paddr) // 4)]
            cache.write_run(vaddr, paddr, values)
            for i, v in enumerate(values):
                oracle[paddr + i * 4] = v
        elif op == "flush":
            flush_frame_everywhere(cache)
        elif op == "snoop":
            # Coherence fault: another CPU claims the line.  Write-back
            # + invalidate preserves the memory image, so the oracle is
            # untouched.
            cache.snoop(cache.geo.set_index(vaddr), paddr // LINE,
                        invalidate=True, write_back=True)
        else:                            # dma — memory written behind us
            flush_frame_everywhere(cache)
            mem.write_word(paddr, value)
            hierarchy.invalidate_span(paddr, 1)
            purge_frame_everywhere(cache)
            oracle[paddr] = value


class TestHierarchyMatchesFlatOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @given(op_list=ops)
    @settings(max_examples=60, deadline=None)
    def test_values_match_flat_oracle(self, name, op_list):
        cache, hierarchy, mem = build(name)
        drive_against_oracle(cache, hierarchy, mem, op_list)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @given(op_list=ops)
    @settings(max_examples=30, deadline=None)
    def test_lower_levels_always_hold_current_memory(self, name, op_list):
        # The clean-copy invariant itself, checked after every fault op:
        # each line resident below the L1 equals current physical memory.
        cache, hierarchy, mem = build(name)
        drive_against_oracle(cache, hierarchy, mem, op_list)
        resident = hierarchy_tags(hierarchy)
        for tag in resident.get("victim", []):
            assert np.array_equal(hierarchy.victim._lines[tag],
                                  mem.read_line(tag * LINE, LINE // 4))
        if hierarchy.l2 is not None:
            for tag in resident.get("l2", []):
                assert np.array_equal(hierarchy.l2.lookup(tag),
                                      mem.read_line(tag * LINE, LINE // 4))


# --- degenerate-configuration bit identity ----------------------------------

mixed_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "read_run", "write_run",
                               "flush", "purge"]),
              st.integers(0, 100),      # word within the first page
              st.integers(0, 2),        # aliasing window
              st.integers(0, 2**30)),   # value / run length seed
    min_size=1, max_size=50)


def drive(cache, op_list, geo):
    observed = []
    for op, word, window, value in op_list:
        paddr = word * 4
        vaddr = paddr + window * geo.way_span
        if op == "read":
            observed.append(cache.read(vaddr, paddr))
        elif op == "write":
            cache.write(vaddr, paddr, value)
        elif op == "read_run":
            observed.extend(int(v) for v in
                            cache.read_run(vaddr, paddr, 1 + value % 8))
        elif op == "write_run":
            cache.write_run(vaddr, paddr, [value, value ^ 1, value ^ 2])
        elif op == "flush":
            cache.flush_page_frame(0, 0)
        else:
            cache.purge_page_frame(0, 0)
    return observed


class TestDegenerateConfigurationIsTheSeedSimulator:
    @given(mixed_ops)
    @settings(max_examples=100, deadline=None)
    def test_empty_hierarchy_is_bit_identical_to_a_bare_cache(self, op_list):
        geo = CacheGeometry(size=8 * 1024)
        flat_mem = PhysicalMemory(8, PAGE)
        flat_clock, flat_counters = Clock(), Counters()
        flat = Cache(geo, flat_mem, CostModel(), flat_clock, flat_counters)

        deg_mem = PhysicalMemory(8, PAGE)
        deg_clock, deg_counters = Clock(), Counters()
        hierarchy = CacheHierarchy(deg_mem, CostModel(), deg_clock,
                                   deg_counters, geo.line_size)
        degenerate = Cache(geo, deg_mem, CostModel(), deg_clock,
                           deg_counters, hierarchy=hierarchy)

        assert drive(flat, op_list, geo) == drive(degenerate, op_list, geo)
        flat.flush_page_frame(0, 0)
        degenerate.flush_page_frame(0, 0)
        assert np.array_equal(flat_mem.read_page(0), deg_mem.read_page(0))
        assert flat_clock.cycles == deg_clock.cycles
        assert flat_counters.snapshot() == deg_counters.snapshot()
