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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.machine import Machine
from repro.hw.params import (WORD_SIZE, CacheGeometry, CostModel,
                             L2Geometry, MachineConfig, small_machine)
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, FaultKind
from repro.prot import AccessKind, Prot

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
# write-through over a hierarchy: each store re-stamps its line
WT_HIERARCHY = {"write_through": True, "victim_lines": 4,
                "l2": L2Geometry(size=16 * 1024, associativity=2)}


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


def stamp_state(cache, mem):
    """:func:`cache_state` with the raw epoch numbers replaced by whether
    each line's fill stamp is current (what a stamp decides).  A
    write-through run bumps a line's epoch once, the word loop once per
    stored word, so only the write-through hierarchy variant needs it."""
    state = list(cache_state(cache, mem))
    tags = cache._tags
    current = (tags != -1) & (cache._fill_epoch
                              == cache.hierarchy._epochs[np.maximum(tags, 0)])
    state[7] = (current.tolist(),) + state[7][2:]
    return tuple(state)


def compared_state(kw):
    """The state function that compares a run with the word loop on the
    variant ``kw``."""
    return (stamp_state if kw.get("write_through") and "l2" in kw
            else cache_state)


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
                       st.integers(1, WORDS_PER_LINE))


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

    @given(hot_warmup, short_runs, st.booleans(),
           st.sampled_from(VARIANTS + [WT_HIERARCHY]))
    @settings(max_examples=200, deadline=None)
    def test_short_run(self, ops, run, is_write, kw):
        # Runs of at most a line's words: on a direct-mapped cache those
        # inside one line take the one-line path, the rest (crossing a
        # line boundary) the vectorized one.
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
        compared = compared_state(kw)
        assert compared(by_run, mem_a) == compared(by_word, mem_b)


# Whole-page runs over partly resident or dirty pages: the warm-up
# touches ranges of lines through arbitrary (virtual page, physical page)
# pairs, so a page's lines can be held in part, dirty, by its own page
# or by other pages' lines, and through unaligned aliases in both cache
# pages at once (doubly-dirty victims).
DIRECT_VARIANTS = [kw for kw in VARIANTS if "associativity" not in kw]
alias_warmup = st.lists(
    st.tuples(st.integers(0, NPAGES - 1), st.integers(0, NPAGES - 1),
              st.integers(0, WPP // WORDS_PER_LINE - 1), st.integers(1, 48),
              st.booleans()),
    max_size=12)
# (virtual page, physical page, is_write) of a page-aligned 1024-word run
page_runs = st.tuples(st.integers(0, NPAGES - 1), st.integers(0, NPAGES - 1),
                      st.booleans())


def alias_warm(cache, ops):
    for vpage, ppage, line, n_lines, is_write in ops:
        for i in range(line, min(line + n_lines, WPP // WORDS_PER_LINE)):
            off = i * WORDS_PER_LINE * WORD_SIZE
            va, pa = vpage * PAGE + off, ppage * PAGE + off
            if is_write:
                cache.write(va, pa, vpage * 1000 + i)
            else:
                cache.read(va, pa)


def run_both(by_run, by_word, vpage, ppage, start, n, is_write, seed):
    """One run through the run API on one cache and the word loop on the
    other; returns the read values of each (None for a write)."""
    va, pa = vpage * PAGE + start * WORD_SIZE, ppage * PAGE + start * WORD_SIZE
    if is_write:
        values = np.arange(seed, seed + n, dtype=np.uint64)
        by_run.write_run(va, pa, values)
        for i in range(n):
            by_word.write(va + i * WORD_SIZE, pa + i * WORD_SIZE,
                          int(values[i]))
        return None, None
    got = by_run.read_run(va, pa, n).tolist()
    want = [by_word.read(va + i * WORD_SIZE, pa + i * WORD_SIZE)
            for i in range(n)]
    return got, want


class TestPageRunsEqualWordLoops:
    """Page-aligned whole-page runs, the shape of every multi-line run
    in the paper traces, and a run shape repeated at a later tick."""

    @given(alias_warmup, page_runs, st.sampled_from(DIRECT_VARIANTS))
    @settings(max_examples=100, deadline=None)
    def test_whole_page_run(self, ops, run, kw):
        vpage, ppage, is_write = run
        by_run, mem_a = make_cache(**kw)
        by_word, mem_b = make_cache(**kw)
        alias_warm(by_run, ops)
        alias_warm(by_word, ops)
        got, want = run_both(by_run, by_word, vpage, ppage, 0, WPP,
                             is_write, 7)
        assert got == want
        assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)

    @given(alias_warmup, page_runs, page_runs, st.integers(0, WPP - 8),
           st.integers(8, WPP), st.sampled_from(DIRECT_VARIANTS))
    @settings(max_examples=100, deadline=None)
    def test_repeated_run_shape(self, ops, first, second, start, n, kw):
        # The second run has the first one's (first word, length) shape
        # on another page pair, later in the tick order: its LRU stamps
        # are the same offsets from a later tick.
        n = min(n, WPP - start)
        by_run, mem_a = make_cache(**kw)
        by_word, mem_b = make_cache(**kw)
        alias_warm(by_run, ops)
        alias_warm(by_word, ops)
        for seed, (vpage, ppage, is_write) in ((7, first), (5000, second)):
            got, want = run_both(by_run, by_word, vpage, ppage, start, n,
                                 is_write, seed)
            assert got == want
            alias_warm(by_run, ops[:2])
            alias_warm(by_word, ops[:2])
        assert cache_state(by_run, mem_a) == cache_state(by_word, mem_b)


# Every run that fits one line: (word offset in the line, length).  The
# line is the last of page 1, so a run can end on the page's last word;
# the line CACHE_BYTES on (page 3) takes the same set of every variant.
ONE_LINE_SHAPES = [(offset, n) for offset in range(WORDS_PER_LINE)
                   for n in range(1, WORDS_PER_LINE - offset + 1)]
# The edges of the one-line rule beside them (offset 0, the whole line,
# is above): a 2-word run that crosses into the line from the line
# before, and a run of no words.
EDGE_SHAPES = [(-1, 2), (0, 0)]
ONE_LINE_PAGE, ONE_LINE = 1, WPP // WORDS_PER_LINE - 1
CACHE_BYTES = 8 * 1024
LINE_STATES = ("hit", "clean-miss", "dirty-miss")
ONE_LINE_VARIANTS = DIRECT_VARIANTS + [WT_HIERARCHY]


def prepare_line(read, write, state):
    """Put the one-line runs' line into ``state`` through word accesses
    ``read(addr)``/``write(addr, value)`` (identity-mapped)."""
    line = ONE_LINE_PAGE * PAGE + ONE_LINE * WORDS_PER_LINE * WORD_SIZE
    if state == "hit":
        read(line)
    elif state == "clean-miss":
        read(line + CACHE_BYTES)
    else:
        write(line + CACHE_BYTES, 0xD1D1)


def fill_memory(mem):
    mem._words[:] = np.arange(len(mem._words), dtype=np.uint64) * 3


class TestOneLineRunsEqualWordLoops:
    """Runs inside one line (every syscall request and reply), and the
    edge shapes beside them: a hit, a clean miss and a dirty-victim miss
    equal the word loop on each direct-mapped variant, for every offset
    and length."""

    @pytest.mark.parametrize("state", LINE_STATES)
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("kw", ONE_LINE_VARIANTS,
                             ids=lambda kw: "+".join(kw) or "direct")
    def test_one_line_run(self, kw, is_write, state):
        compared = compared_state(kw)
        for offset, n in ONE_LINE_SHAPES + EDGE_SHAPES:
            by_run, mem_a = make_cache(**kw)
            by_word, mem_b = make_cache(**kw)
            for cache, mem in ((by_run, mem_a), (by_word, mem_b)):
                fill_memory(mem)
                prepare_line(lambda a, c=cache: c.read(a, a),
                             lambda a, v, c=cache: c.write(a, a, v), state)
            got, want = run_both(by_run, by_word, ONE_LINE_PAGE,
                                 ONE_LINE_PAGE,
                                 ONE_LINE * WORDS_PER_LINE + offset, n,
                                 is_write, 7)
            assert got == want, (offset, n)
            assert compared(by_run, mem_a) == compared(by_word, mem_b), \
                (offset, n)


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

    @pytest.mark.parametrize("state", LINE_STATES)
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("peer", [None, "clean", "dirty"])
    def test_one_line_run(self, peer, is_write, state):
        # The run's CPU 0 line in each state, the peer CPU holding the
        # run's line not at all, clean, or dirty (a snoop on the run).
        line = ONE_LINE_PAGE * PAGE + ONE_LINE * WORDS_PER_LINE * WORD_SIZE
        for offset, n in ONE_LINE_SHAPES:
            by_run, mem_a = self.make_cluster()
            by_word, mem_b = self.make_cluster()
            for cluster, mem in ((by_run, mem_a), (by_word, mem_b)):
                fill_memory(mem)
                if peer == "clean":
                    cluster.read(1, line, line)
                elif peer == "dirty":
                    cluster.write(1, line, line, 0xBEEF)
                prepare_line(lambda a, c=cluster: c.read(0, a, a),
                             lambda a, v, c=cluster: c.write(0, a, a, v),
                             state)
            base = line + offset * WORD_SIZE
            if is_write:
                values = np.arange(7, 7 + n, dtype=np.uint64)
                by_run.write_run(0, base, base, values)
                for i in range(n):
                    by_word.write(0, base + i * WORD_SIZE,
                                  base + i * WORD_SIZE, int(values[i]))
            else:
                got = by_run.read_run(0, base, base, n)
                want = [by_word.read(0, base + i * WORD_SIZE,
                                     base + i * WORD_SIZE) for i in range(n)]
                assert got.tolist() == want, (offset, n)
            for a, b in zip(by_run.caches, by_word.caches):
                assert cache_state(a, mem_a) == cache_state(b, mem_b), \
                    (offset, n)


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


def replay_blocks(ops):
    """Run ``ops`` — ``(start word, length, is_write)`` — as blocks on one
    rig and as word loops on another; check the values read and the
    complete machine state agree.  Returns the block rig."""
    by_block, os_a = make_rig()
    by_word, os_b = make_rig()
    token = 0
    for start, n, is_write in ops:
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
    return by_block, os_a


def machine_contents(machine):
    return (machine.dcache._data.copy(), machine.memory._words.copy(),
            machine.oracle._shadow.copy())


class TestBlocksEqualWordLoops:
    @given(blocks)
    @settings(max_examples=60, deadline=None)
    def test_blocks(self, ops):
        replay_blocks([(start, min(length, SPAN - start), is_write)
                       for start, length, is_write in ops])

    @pytest.mark.parametrize("is_write", [False, True])
    def test_block_ending_on_the_page_last_word(self, is_write):
        # One segment: the block's last word is the page's last word.
        start = 2 * WPP - 5
        machine, _ = replay_blocks([(start, 5, True), (start, 5, is_write)])
        assert machine.counters.tlb_misses == 1

    @pytest.mark.parametrize("is_write", [False, True])
    def test_block_one_word_past_the_page(self, is_write):
        # The same block one word longer: two segments, two translates.
        start = 2 * WPP - 5
        machine, _ = replay_blocks([(start, 5, True), (start, 6, is_write)])
        assert machine.counters.tlb_misses == 2

    def test_single_segment_block_through_uncached_mapping(self):
        start = 4 * WPP + 10
        machine, _ = replay_blocks([(start, 3, True), (start, 3, False),
                                    (start + 1, 1, False)])
        assert machine.counters.read_hits == machine.counters.read_misses == 0

    @pytest.mark.parametrize("is_write", [False, True])
    def test_single_segment_block_whose_first_word_misses_the_tlb(
            self, is_write):
        # Page 0 is touched first, so page 2's block starts on a TLB
        # miss: refill from the translation source, then hits.
        machine, os_ = replay_blocks([(3, 2, False),
                                      (2 * WPP + 7, 4, is_write)])
        assert machine.counters.tlb_misses == 2
        assert os_.faults == []

    def test_single_segment_write_faulting_on_a_read_only_page(self):
        # The read leaves page 3's read-only entry in the TLB, so the
        # write's first lookup hits without the rights it needs.
        start = 3 * WPP + 4
        machine, os_ = replay_blocks([(start, 2, False), (start, 3, True)])
        assert os_.faults == [(ASID, start * WORD_SIZE, AccessKind.WRITE)]

    @pytest.mark.parametrize("start, n", [
        (8, 3),                      # one line of a cached page
        (WPP - 6, 4),                # one page, two lines
        (4 * WPP + 2, 3),            # uncached
        (WPP - 6, 12),               # two segments
    ])
    def test_returned_array_belongs_to_the_caller(self, start, n):
        machine, _ = make_rig()
        base = start * WORD_SIZE
        machine.write_block(ASID, base, np.arange(1, n + 1, dtype=np.uint64))
        got = machine.read_block(ASID, base, n)
        before = machine_contents(machine)
        got[:] = 12345
        after = machine_contents(machine)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert machine.read_block(ASID, base, n).tolist() == \
            list(range(1, n + 1))

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
