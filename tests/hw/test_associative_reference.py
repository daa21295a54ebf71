"""Associative word, run and page accesses against the word loop.

On an N-way cache every word access, run and page operation goes through
one line step (:meth:`Cache._claim_line`) over one line walk
(:meth:`Cache._run_lines`).  The reference below is the word loop they
replace, kept verbatim: the associative bodies of ``read`` and ``write``,
the per-word loops that ran runs and pages through them, and the way
search, victim choice and LRU touch those bodies called.  Only the
shared line primitives (``_decode``, ``_check_line``, ``_evict``,
``_fill``) and the page helpers come from the live class.

Hypothesis draws a random cache state and a sequence of word accesses,
runs (inside one line, crossing lines, a whole page), page reads, page
writes and zero-fills, with flushes and purges between them to open
invalid ways.  Each step runs on two caches built from one state, the
live method on one and the reference on the other, and compares tags,
dirty bits, data, LRU stamps and tick, memory, the clock and the
counters.  Below a victim cache or L2 it compares the lower levels'
contents and, per valid line, whether the line may be captured below
(``_fill_epoch == epoch_of(tag)``), not raw epoch values: a
write-through run bumps a line's epoch once, the word loop once per
word, and only the capture test reads the epochs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason

PAGE = 4096
LINE = 32
NUM_PAGES = 12
INVALID = -1
WPL = LINE // WORD_SIZE
WPP = PAGE // WORD_SIZE

#: cell name -> (ways, victim lines, L2?, geometry keyword arguments).
CELLS = {
    "2way": (2, 0, False, {}),
    "4way": (4, 0, False, {}),
    "2way-victim8": (2, 8, False, {}),
    "4way-l2": (4, 0, True, {}),
    "2way-victim8-l2": (2, 8, True, {}),
    "2way-write-through": (2, 0, False, {"write_through": True}),
    "4way-write-through-victim8-l2": (4, 8, True, {"write_through": True}),
    "2way-physical": (2, 0, False, {"physically_indexed": True}),
    "4way-physical-victim8": (4, 8, False, {"physically_indexed": True}),
}


# ---- the reference: the word loop, verbatim ----------------------------------


def ref_find_way(self, set_idx, tag):
    for way in range(self.geo.associativity):
        if self._tags[way, set_idx] == tag:
            return way
    return None


def ref_victim_way(self, set_idx):
    tags = self._tags[:, set_idx]
    empties = np.flatnonzero(tags == INVALID)
    if len(empties):
        return int(empties[0])
    return int(np.argmin(self._lru[:, set_idx]))


def ref_touch(self, way, set_idx):
    self._tick += 1
    self._lru[way, set_idx] = self._tick


def ref_read(self, vaddr, paddr):
    set_idx, tag, word = self._decode(vaddr, paddr)
    way = ref_find_way(self, set_idx, tag)
    if way is None:
        self._check_line(tag)
        self.counters.read_misses += 1
        way = ref_victim_way(self, set_idx)
        self._evict(way, set_idx)
        self._fill(way, set_idx, tag)
    else:
        self.counters.read_hits += 1
        self.clock.advance(self.cost.cache_hit)
    ref_touch(self, way, set_idx)
    return int(self._data[way, set_idx, word])


def ref_write(self, vaddr, paddr, value):
    set_idx, tag, word = self._decode(vaddr, paddr)
    geo = self.geo
    way = ref_find_way(self, set_idx, tag)
    if way is None:
        self._check_line(tag)
        self.counters.write_misses += 1
        way = ref_victim_way(self, set_idx)
        self._evict(way, set_idx)
        self._fill(way, set_idx, tag)
    else:
        self.counters.write_hits += 1
        self.clock.advance(self.cost.cache_hit)
    ref_touch(self, way, set_idx)
    self._data[way, set_idx, word] = np.uint64(value)
    if geo.write_through:
        self.memory.write_word(paddr, value)
        self.clock.advance(self.cost.write_back)
        if self.hierarchy is not None:
            self.hierarchy.note_memory_write(tag)
            self._fill_epoch[way, set_idx] = self.hierarchy.epoch_of(tag)
    else:
        self._dirty[way, set_idx] = True


def ref_read_words(self, vaddr, paddr, n_words):
    self._page_tags(paddr - paddr % self.geo.page_size)
    out = np.empty(n_words, dtype=np.uint64)
    for i in range(n_words):
        off = i * WORD_SIZE
        out[i] = ref_read(self, vaddr + off, paddr + off)
    return out


def ref_write_words(self, vaddr, paddr, values):
    self._page_tags(paddr - paddr % self.geo.page_size)
    for i in range(len(values)):
        off = i * WORD_SIZE
        ref_write(self, vaddr + off, paddr + off, int(values[i]))


def ref_read_page(self, va_page_base, pa_page_base):
    self._check_page_pair(va_page_base, pa_page_base)
    return ref_read_words(self, va_page_base, pa_page_base,
                          self.geo.words_per_page)


def ref_write_page(self, va_page_base, pa_page_base, values):
    self._check_page_pair(va_page_base, pa_page_base)
    if len(values) != self.geo.words_per_page:
        raise AddressError("write_page requires exactly one page of words")
    ref_write_words(self, va_page_base, pa_page_base, values)


# ---- two identical caches from one random state ------------------------------


def make_cache(cell):
    ways, victim_lines, l2, geo_opts = CELLS[cell]
    geo = CacheGeometry(size=16 * 1024, line_size=LINE, page_size=PAGE,
                        associativity=ways, **geo_opts)
    memory = PhysicalMemory(num_pages=NUM_PAGES, page_size=PAGE)
    clock, counters = Clock(), Counters()
    hierarchy = None
    if victim_lines or l2:
        hierarchy = CacheHierarchy(
            memory, CostModel(), clock, counters, LINE,
            victim_lines=victim_lines,
            l2=L2Geometry(size=8 * 1024, line_size=LINE, associativity=2)
            if l2 else None)
    return Cache(geo, memory, CostModel(), clock, counters,
                 hierarchy=hierarchy)


def seed_state(cache, rng):
    """Random memory, then every way of every set holding, with
    probability 0.8, a line that indexes to that set (distinct within the
    set), dirty half the time with other data than memory's; clean lines
    hold memory's data.  LRU stamps are distinct within a set and below
    the tick.  Below the L1, clean copies of random lines."""
    geo = cache.geo
    ways, n, lpp = geo.associativity, geo.num_sets, geo.lines_per_page
    mem_lines = cache.memory._words.reshape(-1, WPL)
    mem_lines[:] = rng.integers(0, 2**32, mem_lines.shape, dtype=np.uint64)
    n_lines = len(mem_lines)
    for s in range(n):
        # the lines that index to set s: same page offset, and under
        # physical indexing the same cache page too
        step = n if geo.physically_indexed else lpp
        candidates = np.arange(s % step, n_lines, step)
        held = rng.choice(candidates, size=ways, replace=False)
        for way in range(ways):
            if rng.random() < 0.8:
                tag = int(held[way])
                cache._tags[way, s] = tag
                if not geo.write_through and rng.random() < 0.5:
                    cache._dirty[way, s] = True
                    cache._data[way, s] = rng.integers(0, 2**32, WPL,
                                                       dtype=np.uint64)
                else:
                    cache._data[way, s] = mem_lines[tag]
        cache._lru[:, s] = rng.permutation(ways) + 1 + s * ways
    cache._tick = n * ways + 1
    hierarchy = cache.hierarchy
    if hierarchy is not None:
        for tag in rng.choice(n_lines, size=24, replace=False).tolist():
            hierarchy.capture(tag, mem_lines[tag])
            if hierarchy.l2 is not None:
                hierarchy.l2.insert(tag, mem_lines[tag])
        # a few clean lines whose memory moved since their fill
        stale = (cache._tags != INVALID) & (rng.random(cache._tags.shape)
                                            < 0.1)
        cache._fill_epoch[stale] = -1


def build(cell, seed):
    caches = []
    for _ in range(2):
        cache = make_cache(cell)
        seed_state(cache, np.random.default_rng(seed))
        caches.append(cache)
    return caches


def state(cache):
    out = [cache._tags.tolist(), cache._dirty.tolist(), cache._data.tolist(),
           cache._lru.tolist(), cache._tick, cache.memory._words.tolist(),
           cache.clock.cycles, cache.counters.snapshot()]
    hierarchy = cache.hierarchy
    if hierarchy is not None:
        valid = cache._tags != INVALID
        current = hierarchy.epochs_of(np.where(valid, cache._tags, 0))
        out.append(((cache._fill_epoch == current) & valid).tolist())
        if hierarchy.victim is not None:
            out.append([(tag, line.tolist()) for tag, line
                        in hierarchy.victim._lines.items()])
        if hierarchy.l2 is not None:
            l2 = hierarchy.l2
            out += [l2._tags.tolist(), l2._lru.tolist(), l2._data.tolist(),
                    l2._tick]
    return out


# ---- the ops -----------------------------------------------------------------


def pair(cache, vpage, frame, word):
    """A (va, pa) pair at ``word`` of virtual page ``vpage`` and frame
    ``frame``; under physical indexing the virtual page is free."""
    off = word * WORD_SIZE
    return vpage * PAGE + off, frame * PAGE + off


OPS = ("read", "write", "read_run", "write_run", "read_page", "write_page",
       "zero_page", "flush", "purge")


@st.composite
def op(draw):
    kind = draw(st.sampled_from(OPS))
    vpage = draw(st.integers(0, 15))
    frame = draw(st.integers(0, NUM_PAGES - 1))
    if kind in ("read_run", "write_run"):
        shape = draw(st.sampled_from(("one-line", "crossing", "page")))
        if shape == "page":
            word, n = 0, WPP
        elif shape == "one-line":
            word = draw(st.integers(0, WPP - 1))
            n = draw(st.integers(1, WPL - word % WPL))
        else:
            word = draw(st.integers(0, WPP - WPL - 1))
            n = draw(st.integers(WPL - word % WPL + 1,
                                 min(WPP - word, 5 * WPL)))
    elif kind in ("read", "write"):
        word, n = draw(st.integers(0, WPP - 1)), 1
    else:
        word, n = 0, WPP
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, vpage, frame, word, n, seed


def apply(cache, step, live):
    """Run one op on ``cache``: the live method, or the reference."""
    kind, vpage, frame, word, n, seed = step
    va, pa = pair(cache, vpage, frame, word)
    values = np.random.default_rng(seed).integers(0, 2**32, n,
                                                  dtype=np.uint64)
    if kind == "read":
        return cache.read(va, pa) if live else ref_read(cache, va, pa)
    if kind == "write":
        value = int(values[0])
        return (cache.write(va, pa, value) if live
                else ref_write(cache, va, pa, value))
    if kind == "read_run":
        return (cache.read_run(va, pa, n) if live
                else ref_read_words(cache, va, pa, n)).tolist()
    if kind == "write_run":
        return (cache.write_run(va, pa, values) if live
                else ref_write_words(cache, va, pa, values))
    if kind == "read_page":
        return (cache.read_page(va, pa) if live
                else ref_read_page(cache, va, pa)).tolist()
    if kind == "zero_page":
        values = np.zeros(WPP, dtype=np.uint64)
    if kind in ("write_page", "zero_page"):
        return (cache.write_page(va, pa, values) if live
                else ref_write_page(cache, va, pa, values))
    # flush / purge: not under test, they open invalid ways
    cache_page = cache.cache_page_of(va, pa)
    if kind == "flush":
        return cache.flush_page_frame(cache_page, pa, Reason.EXPLICIT)
    return cache.purge_page_frame(cache_page, pa, Reason.EXPLICIT)


@pytest.mark.parametrize("cell", sorted(CELLS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(op(), min_size=1, max_size=8))
def test_matches_the_word_loop(cell, seed, steps):
    live, ref = build(cell, seed)
    assert state(live) == state(ref)
    for i, step in enumerate(steps):
        assert apply(live, step, True) == apply(ref, step, False), \
            f"step {i}: {step}"
        assert state(live) == state(ref), f"step {i}: {step}"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_page_ops_from_a_full_set(cell):
    """Fixed cases: every way valid, so each page op's misses replace by
    LRU, and a page read right after a page write of the same frame."""
    live, ref = build(cell, 7)
    steps = [("read_page", 3, 5, 0, WPP, 0), ("write_page", 1, 2, 0, WPP, 1),
             ("read_page", 1, 2, 0, WPP, 0), ("read_run", 0, 9, 5, 40, 0),
             ("write_run", 2, 9, 3, 5, 2), ("zero_page", 4, 5, 0, WPP, 0)]
    for step in steps:
        assert apply(live, step, True) == apply(ref, step, False), step
        assert state(live) == state(ref), step
