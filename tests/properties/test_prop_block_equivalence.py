"""Property tests: the batched block engine is observationally
equivalent to the word loop it replaces.

``Cache.read_run``/``write_run`` and ``Machine.read_block``/
``write_block`` promise *bit-identical* behaviour to the per-word
access loop: the same clock cycles, the same counters (hits, misses,
write-backs, TLB traffic), the same tag/dirty/data/LRU state, the same
memory and TLB contents, the same values and the same fault sequence —
including blocks that cross page boundaries, hit read-only or unmapped
pages mid-block, traverse uncached segments, or take consistency faults
against an unaligned alias.  These tests state that promise as
properties and check the complete state, not a summary of it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.cache as cache_mod
from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.machine import Machine
from repro.hw.params import (WORD_SIZE, CacheGeometry, CostModel,
                             L2Geometry, MachineConfig, small_machine)
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, FaultKind
from repro.prot import Prot

PAGE = 4096
WPP = PAGE // WORD_SIZE
NPAGES = 8

# ---------------------------------------------------------------------------
# Cache level: read_run / write_run vs the word loop.
# ---------------------------------------------------------------------------

VARIANTS = [
    {},                            # the 720: direct mapped, write back
    {"write_through": True},
    {"physically_indexed": True},
    {"associativity": 2},          # takes the word loop
    # a victim cache and an L2 below the L1: fills and evictions go
    # through the hierarchy one line at a time
    {"victim_lines": 4, "l2": L2Geometry(size=16 * 1024, associativity=2)},
]


def make_cache(**kw):
    victim_lines, l2 = kw.pop("victim_lines", 0), kw.pop("l2", None)
    geo = CacheGeometry(size=kw.pop("size", 8 * 1024), **kw)
    mem = PhysicalMemory(NPAGES, PAGE)
    clock, counters = Clock(), Counters()
    hierarchy = None
    if victim_lines or l2 is not None:
        hierarchy = CacheHierarchy(mem, CostModel(), clock, counters,
                                   geo.line_size, victim_lines=victim_lines,
                                   l2=l2)
    return Cache(geo, mem, CostModel(), clock, counters,
                 hierarchy=hierarchy), mem


def hierarchy_state(cache):
    h = cache.hierarchy
    if h is None:
        return None
    victim = ([(tag, line.tolist()) for tag, line in h.victim._lines.items()]
              if h.victim is not None else None)
    l2 = ((h.l2._tags.tolist(), h.l2._data.tolist(), h.l2._lru.tolist())
          if h.l2 is not None else None)
    return (h._epochs.tolist(), cache._fill_epoch.tolist(), victim, l2)


def cache_state(cache, mem):
    return (cache.clock.cycles, cache._tick,
            cache._tags.tolist(), cache._dirty.tolist(),
            cache._data.tolist(), cache._lru.tolist(),
            cache.counters.snapshot(), hierarchy_state(cache),
            mem._words.tolist())


# Identity-mapped word accesses used to put both caches into the same
# (arbitrary) warm state before the run under test.
warmup = st.lists(
    st.tuples(st.integers(0, NPAGES - 1), st.integers(0, WPP - 1),
              st.integers(0, 2**32 - 1), st.booleans()),
    max_size=40)

# A run: (page, start word, length fraction) — length is clipped to the
# page so the run is always valid.
runs = st.tuples(st.integers(0, NPAGES - 1), st.integers(0, WPP - 1),
                 st.integers(1, WPP))


# Short runs start in a few hot lines (the last one ends the page), a
# few words before the line's end, so most of them cross a line
# boundary; the warm-up for them touches the same lines of every page,
# so the run's lines are often held by conflicting dirty or clean lines.
WORDS_PER_LINE = CacheGeometry(size=8 * 1024).words_per_line
HOT_LINES = (0, 1, 2, WPP // WORDS_PER_LINE - 1)
hot_warmup = st.lists(
    st.tuples(st.integers(0, NPAGES - 1),
              st.builds(lambda line, word: line * WORDS_PER_LINE + word,
                        st.sampled_from(HOT_LINES),
                        st.integers(0, WORDS_PER_LINE - 1)),
              st.integers(0, 2**32 - 1), st.booleans()),
    max_size=40)
# (page, line, words before the line's end at which it starts, length)
short_runs = st.tuples(st.integers(0, NPAGES - 1), st.sampled_from(HOT_LINES),
                       st.integers(1, WORDS_PER_LINE - 1),
                       st.integers(1, cache_mod.RUN_FALLBACK_WORDS - 1))


def short_run_span(run):
    """Base address and length (clipped to the page) of a short run."""
    ppage, line, before_end, length = run
    start = (line + 1) * WORDS_PER_LINE - before_end
    return ppage * PAGE + start * WORD_SIZE, min(length, WPP - start)


def warm(cache, ops):
    for ppage, word, value, is_write in ops:
        addr = ppage * PAGE + word * WORD_SIZE
        if is_write:
            cache.write(addr, addr, value)
        else:
            cache.read(addr, addr)


class TestRunsEqualWordLoops:
    @given(warmup, runs, st.sampled_from(VARIANTS))
    @settings(max_examples=150, deadline=None)
    def test_read_run(self, ops, run, kw):
        ppage, start, length = run
        n = min(length, WPP - start)
        by_run, mem_a = make_cache(**kw)
        by_word, mem_b = make_cache(**kw)
        warm(by_run, ops)
        warm(by_word, ops)
        base = ppage * PAGE + start * WORD_SIZE

        got = by_run.read_run(base, base, n)
        want = [by_word.read(base + i * WORD_SIZE, base + i * WORD_SIZE)
                for i in range(n)]

        assert got.tolist() == want
        assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)

    @given(warmup, runs, st.sampled_from(VARIANTS))
    @settings(max_examples=150, deadline=None)
    def test_write_run(self, ops, run, kw):
        ppage, start, length = run
        n = min(length, WPP - start)
        by_run, mem_a = make_cache(**kw)
        by_word, mem_b = make_cache(**kw)
        warm(by_run, ops)
        warm(by_word, ops)
        base = ppage * PAGE + start * WORD_SIZE
        values = np.arange(7, 7 + n, dtype=np.uint64)

        by_run.write_run(base, base, values)
        for i in range(n):
            by_word.write(base + i * WORD_SIZE, base + i * WORD_SIZE,
                          int(values[i]))

        assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)

    @given(hot_warmup, short_runs, st.booleans(), st.sampled_from(VARIANTS))
    @settings(max_examples=200, deadline=None)
    def test_short_run(self, ops, run, is_write, kw):
        # Runs under RUN_FALLBACK_WORDS take the per-line path on a
        # direct-mapped cache; most of these cross a line boundary.
        base, n = short_run_span(run)
        by_run, mem_a = make_cache(**kw)
        by_word, mem_b = make_cache(**kw)
        warm(by_run, ops)
        warm(by_word, ops)
        if is_write:
            values = np.arange(7, 7 + n, dtype=np.uint64)
            by_run.write_run(base, base, values)
            for i in range(n):
                by_word.write(base + i * WORD_SIZE, base + i * WORD_SIZE,
                              int(values[i]))
        else:
            got = by_run.read_run(base, base, n)
            want = [by_word.read(base + i * WORD_SIZE, base + i * WORD_SIZE)
                    for i in range(n)]
            assert got.tolist() == want
        assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)

    @given(warmup, st.integers(0, NPAGES - 1), st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_short_runs_vectorized(self, ops, ppage, n):
        # Below RUN_FALLBACK_WORDS the run APIs normally take the word
        # loop; lowering the cutoff must not change what they compute.
        saved = cache_mod.RUN_FALLBACK_WORDS
        cache_mod.RUN_FALLBACK_WORDS = 1
        try:
            by_run, mem_a = make_cache()
            by_word, mem_b = make_cache()
            warm(by_run, ops)
            warm(by_word, ops)
            base = ppage * PAGE
            by_run.write_run(base, base, np.arange(n, dtype=np.uint64))
            got = by_run.read_run(base, base, n)
            for i in range(n):
                by_word.write(base + i * WORD_SIZE, base + i * WORD_SIZE, i)
            want = [by_word.read(base + i * WORD_SIZE, base + i * WORD_SIZE)
                    for i in range(n)]
            assert got.tolist() == want
            assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)
        finally:
            cache_mod.RUN_FALLBACK_WORDS = saved


class TestClusterRunsEqualWordLoops:
    """A 2-CPU coherent cluster: a run on one CPU (snooping the other,
    then running the local cache's run path) equals the word loop of
    single-word cluster accesses."""

    @staticmethod
    def make_cluster():
        geo = CacheGeometry(size=8 * 1024)
        mem = PhysicalMemory(NPAGES, PAGE)
        return CoherentCluster(2, geo, mem, CostModel(), Clock(),
                               Counters()), mem

    @given(st.lists(st.integers(0, 1), min_size=40, max_size=40),
           hot_warmup, short_runs, st.integers(0, 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_two_cpu_run(self, cpus, ops, run, cpu, is_write):
        by_run, mem_a = self.make_cluster()
        by_word, mem_b = self.make_cluster()
        for cluster in (by_run, by_word):
            for op_cpu, (ppage, word, value, op_write) in zip(cpus, ops):
                addr = ppage * PAGE + word * WORD_SIZE
                if op_write:
                    cluster.write(op_cpu, addr, addr, value)
                else:
                    cluster.read(op_cpu, addr, addr)
        base, n = short_run_span(run)
        if is_write:
            values = np.arange(7, 7 + n, dtype=np.uint64)
            by_run.write_run(cpu, base, base, values)
            for i in range(n):
                by_word.write(cpu, base + i * WORD_SIZE,
                              base + i * WORD_SIZE, int(values[i]))
        else:
            got = by_run.read_run(cpu, base, base, n)
            want = [by_word.read(cpu, base + i * WORD_SIZE,
                                 base + i * WORD_SIZE) for i in range(n)]
            assert got.tolist() == want
        for a, b in zip(by_run.caches, by_word.caches):
            assert cache_state(a, mem_a) == cache_state(b, mem_b)


# ---------------------------------------------------------------------------
# Machine level: read_block / write_block vs the word loop, including
# page crossings, faults mid-block and uncached segments.
# ---------------------------------------------------------------------------

SPAN_PAGES = 6                       # pages 0-5 of the test address space
SPAN = SPAN_PAGES * WPP
ASID = 1


class SimpleOS:
    """Translation source + fault handler; resolves every fault by
    mapping the page read-write to a page-determined frame."""

    def __init__(self, machine):
        self.machine = machine
        self.mappings = {}
        self.faults = []
        machine.translation_source = (
            lambda asid, vpage: self.mappings.get((asid, vpage)))
        machine.fault_handler = self.fault

    def map(self, asid, vpage, ppage, prot=Prot.ALL, uncached=False):
        self.mappings[(asid, vpage)] = (ppage, prot, uncached)
        self.machine.tlb.invalidate(asid, vpage)

    def fault(self, info):
        self.faults.append((info.asid, info.vaddr, info.access))
        self.map(info.asid, info.vaddr // PAGE, 40 + info.vaddr // PAGE)


def make_rig():
    machine = Machine(small_machine())
    os_ = SimpleOS(machine)
    for vpage in (0, 1, 2):
        os_.map(ASID, vpage, 10 + vpage)
    os_.map(ASID, 3, 13, Prot.READ)    # writes fault mid-block
    os_.map(ASID, 4, 14, uncached=True)
    # page 5 unmapped: reads and writes fault
    return machine, os_


def assert_machines_identical(ma, osa, mb, osb):
    assert ma.clock.cycles == mb.clock.cycles
    assert ma.counters == mb.counters
    assert np.array_equal(ma.dcache._tags, mb.dcache._tags)
    assert np.array_equal(ma.dcache._dirty, mb.dcache._dirty)
    assert np.array_equal(ma.dcache._data, mb.dcache._data)
    assert np.array_equal(ma.dcache._lru, mb.dcache._lru)
    assert ma.dcache._tick == mb.dcache._tick
    assert np.array_equal(ma.memory._words, mb.memory._words)
    assert sorted(ma.tlb._map.items()) == sorted(mb.tlb._map.items())
    assert osa.faults == osb.faults


# Blocks: (start word, requested length, is_write); lengths are clipped
# to the address span, so blocks may cross several page boundaries.
blocks = st.lists(
    st.tuples(st.integers(0, SPAN - 1), st.integers(1, 1500),
              st.booleans()),
    min_size=1, max_size=6)


class TestBlocksEqualWordLoops:
    @given(blocks)
    @settings(max_examples=60, deadline=None)
    def test_blocks(self, ops):
        by_block, os_a = make_rig()
        by_word, os_b = make_rig()
        token = 0
        for start, length, is_write in ops:
            n = min(length, SPAN - start)
            base = start * WORD_SIZE
            if is_write:
                values = np.arange(token, token + n, dtype=np.uint64)
                by_block.write_block(ASID, base, values)
                for i in range(n):
                    by_word.write(ASID, base + i * WORD_SIZE, token + i)
                token += n
            else:
                got = by_block.read_block(ASID, base, n)
                want = [by_word.read(ASID, base + i * WORD_SIZE)
                        for i in range(n)]
                assert got.tolist() == want
        assert_machines_identical(by_block, os_a, by_word, os_b)

    def test_write_fault_mid_block_at_read_only_page(self):
        # A write crossing from page 2 into read-only page 3 faults at
        # the boundary word on both paths, with the same fault address.
        by_block, os_a = make_rig()
        by_word, os_b = make_rig()
        start = 2 * WPP + WPP - 8           # last 8 words of page 2...
        n = 24                              # ...plus 16 words of page 3
        base = start * WORD_SIZE
        by_block.write_block(ASID, base,
                             np.arange(n, dtype=np.uint64))
        for i in range(n):
            by_word.write(ASID, base + i * WORD_SIZE, i)
        assert os_a.faults == [(ASID, 3 * PAGE, os_a.faults[0][2])]
        assert_machines_identical(by_block, os_a, by_word, os_b)

    def test_block_through_uncached_segment(self):
        # Page 3 is readable, page 4 uncached, page 5 unmapped: one read
        # block traverses cached, uncached and faulting segments.
        by_block, os_a = make_rig()
        by_word, os_b = make_rig()
        start = 3 * WPP + 1000
        n = 2 * WPP                          # ends inside page 5
        base = start * WORD_SIZE
        got = by_block.read_block(ASID, base, n)
        want = [by_word.read(ASID, base + i * WORD_SIZE) for i in range(n)]
        assert got.tolist() == want
        assert os_a.faults and os_a.faults[0][1] == 5 * PAGE
        assert_machines_identical(by_block, os_a, by_word, os_b)

    def test_notifier_fires_once_per_page_segment(self):
        machine, os_ = make_rig()
        notes = []
        machine.write_notifier = (
            lambda asid, vpage: notes.append((asid, vpage)))
        base = (WPP - 4) * WORD_SIZE         # crosses page 0 -> 1
        machine.write_block(ASID, base, np.arange(8, dtype=np.uint64))
        assert notes == [(ASID, 0), (ASID, 1)]


# ---------------------------------------------------------------------------
# Kernel level: block accesses through an unaligned alias take the same
# consistency faults, at the same cost, as the word loop.
# ---------------------------------------------------------------------------

class TestConsistencyFaultsMidBlock:
    N_PAGES = 2

    def _ping_pong(self, use_blocks):
        from repro.kernel.kernel import Kernel
        from repro.vm.policy import CONFIG_F
        from repro.vm.vm_object import Backing, VMObject

        kernel = Kernel(policy=CONFIG_F,
                        config=MachineConfig(phys_pages=128),
                        with_unix_server=False)
        writer = kernel.create_task("writer")
        reader = kernel.create_task("reader")
        obj = VMObject(self.N_PAGES, Backing.ZERO_FILL)
        w_base = writer.map_shared(obj, Prot.READ_WRITE)
        ncp = kernel.machine.dcache.geo.num_cache_pages
        color = (writer.space.cache_page_of(w_base) + 1) % ncp
        r_base = reader.map_shared(obj, Prot.READ_WRITE, color=color)

        n = self.N_PAGES * WPP               # spans a page boundary
        for round_ in range(3):
            values = list(range(round_ * n, round_ * n + n))
            if use_blocks:
                writer.write_block(w_base, 0, values)
                got = reader.read_block(r_base, 0, n).tolist()
            else:
                for i, value in enumerate(values):
                    writer.write(w_base + i // WPP, i % WPP, value)
                got = [reader.read(r_base + i // WPP, i % WPP)
                       for i in range(n)]
            assert got == values             # the alias stays coherent
        return kernel

    def test_unaligned_alias_ping_pong(self):
        by_word = self._ping_pong(use_blocks=False)
        by_block = self._ping_pong(use_blocks=True)
        # The scenario really does take consistency faults...
        faults = by_block.machine.counters.faults[FaultKind.CONSISTENCY]
        assert faults > 0
        # ...and the block path takes exactly the word loop's faults,
        # cycles and counter values.
        assert (by_block.machine.clock.cycles
                == by_word.machine.clock.cycles)
        assert by_block.machine.counters == by_word.machine.counters
