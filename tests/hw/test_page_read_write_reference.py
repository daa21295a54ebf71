"""The page read and page write against a masked reference.

On a direct-mapped cache, :meth:`Cache.read_page`, :meth:`Cache.write_page`
and :meth:`Cache.zero_page` run the page kernels (``fill_lines``,
``store_lines`` and the victim scatter they share), which the trace
interpreter runs too, so the replay shape tests compare those kernels
with themselves.  The reference below is independent of them: the
mask-based bodies of the three methods, kept verbatim, with their victim
write-back helper.  They copy the page out of memory and mask victims
and misses on every call, whatever the page's shape.

Each case builds two identical caches from one random state, runs the
live method on one and the reference on the other, and compares tags,
dirty bits, data, LRU stamps and tick, memory, the clock, the counters
and their full encoding, and, with a hierarchy below, its levels, its
memory epochs and the fill stamps.
"""

import zlib

import numpy as np
import pytest

from repro.errors import AddressError
from repro.hw.cache import Cache
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters
from repro.trace.format import encode_counters
from tests.hw.cache_helpers import hierarchy_tags

PAGE = 4096
LINE = 32
NUM_PAGES = 12
INVALID = -1
WPP = PAGE // WORD_SIZE

#: cell name -> (hierarchy below?, geometry keyword arguments).
CELLS = {
    "virtual": (False, {}),
    "physical": (False, {"physically_indexed": True}),
    "write-through": (False, {"write_through": True}),
    "write-through-physical": (False, {"write_through": True,
                                       "physically_indexed": True}),
    "hierarchy": (True, {}),
    "hierarchy-write-through": (True, {"write_through": True}),
}


# ---- the reference: the masked bodies, verbatim ------------------------------


def ref_write_back_victims(self, sets, victims):
    n = int(np.count_nonzero(victims))
    if not n:
        return
    idxs = np.flatnonzero(victims)
    self.memory.write_lines(self._tags[0, sets][idxs],
                            self._data[0, sets][idxs],
                            self.geo.words_per_line)
    self.counters.write_backs += n
    self.clock.advance(n * self.cost.write_back)


def ref_read_page(self, va_page_base, pa_page_base):
    self._check_page_pair(va_page_base, pa_page_base)
    cp = self.cache_page_of(va_page_base, pa_page_base)
    sets = self._page_sets(cp)
    want = self._page_tags(pa_page_base)
    tags = self._tags[0, sets]
    match = tags == want
    misses = ~match
    n_miss = int(misses.sum())
    n_hit = self.geo.lines_per_page - n_miss
    if self.hierarchy is not None:
        self._service_lines(sets, want, misses)
        self.clock.advance(n_hit * self.geo.words_per_line
                           * self.cost.cache_hit)
    else:
        # evict dirty victims occupying the sets we are about to fill
        victims = misses & (tags != INVALID) & self._dirty[0, sets]
        ref_write_back_victims(self, sets, victims)
        # fill the missing lines from memory
        mem_page = self.memory.read_page(pa_page_base // self.geo.page_size)
        lines = mem_page.reshape(self.geo.lines_per_page,
                                 self.geo.words_per_line)
        self._data[0, sets][misses] = lines[misses]
        self._tags[0, sets] = want
        self._dirty[0, sets][misses] = False
        self.clock.advance(n_hit * self.geo.words_per_line
                           * self.cost.cache_hit
                           + n_miss * self.cost.line_fill)
    self.counters.read_hits += n_hit
    self.counters.read_misses += n_miss
    return self._data[0, sets].reshape(-1).copy()


def ref_write_page(self, va_page_base, pa_page_base, values):
    self._check_page_pair(va_page_base, pa_page_base)
    if len(values) != self.geo.words_per_page:
        raise AddressError("write_page requires exactly one page of words")
    cp = self.cache_page_of(va_page_base, pa_page_base)
    sets = self._page_sets(cp)
    want = self._page_tags(pa_page_base)
    tags = self._tags[0, sets]
    if self.hierarchy is not None:
        # Evict (and possibly capture below) every non-matching valid
        # line; matching lines are overwritten in place, needing no
        # fill because the whole line is replaced.
        stale = (tags != want) & (tags != INVALID)
        for i in np.flatnonzero(stale):
            self._evict(0, sets.start + int(i))
    else:
        victims = (tags != want) & (tags != INVALID) & self._dirty[0, sets]
        ref_write_back_victims(self, sets, victims)
    self._tags[0, sets] = want
    self._data[0, sets] = np.asarray(values, dtype=np.uint64).reshape(
        self.geo.lines_per_page, self.geo.words_per_line)
    n_words = self.geo.words_per_page
    if self.geo.write_through:
        self._dirty[0, sets] = False
        self.memory.write_page(pa_page_base // self.geo.page_size,
                               np.asarray(values, dtype=np.uint64))
        if self.hierarchy is not None:
            self.hierarchy.invalidate_page(
                pa_page_base // self.geo.page_size)
            self._fill_epoch[0, sets] = self.hierarchy.epochs_of(want)
        self.clock.advance(n_words * (self.cost.cache_hit
                                      + self.cost.write_back))
    else:
        self._dirty[0, sets] = True
        self.clock.advance(n_words * self.cost.cache_hit)


def ref_zero_page(self, va_page_base, pa_page_base):
    ref_write_page(self, va_page_base, pa_page_base,
                   np.zeros(self.geo.words_per_page, dtype=np.uint64))


# ---- two identical caches from one random state ----------------------------------


def make_cache(cell):
    with_hierarchy, geo_opts = CELLS[cell]
    geo = CacheGeometry(size=16 * 1024, line_size=LINE, page_size=PAGE,
                        **geo_opts)
    memory = PhysicalMemory(num_pages=NUM_PAGES, page_size=PAGE)
    clock, counters = Clock(), Counters()
    hierarchy = None
    if with_hierarchy:
        hierarchy = CacheHierarchy(memory, CostModel(), clock, counters, LINE,
                                   victim_lines=8,
                                   l2=L2Geometry(size=8 * 1024, line_size=LINE,
                                                 associativity=2))
    return Cache(geo, memory, CostModel(), clock, counters,
                 hierarchy=hierarchy)


def seed_state(cache, rng, cache_page, frame, resident, dirty_p, alias):
    """Random memory and cache contents, then ``resident`` of ``frame``'s
    line indices made resident in ``cache_page``.  Set ``s`` holds a line
    with page offset ``s % lines_per_page`` (under physical indexing, of
    a frame that indexes to that cache page), dirty with probability
    ``dirty_p``; invalid lines are clean.  With ``alias``, every valid
    line of ``cache_page`` is also held, dirty and with other data, in
    another cache page: doubly-dirty aliases of the target's lines and
    of its victims."""
    geo = cache.geo
    lpp, n = geo.lines_per_page, geo.num_sets
    ncp = geo.num_cache_pages
    cache.memory._words[:] = rng.integers(0, 2**32, cache.memory._words.size,
                                          dtype=np.uint64)
    cache._data[0] = rng.integers(0, 2**32, (n, geo.words_per_line),
                                  dtype=np.uint64)
    page = rng.integers(0, NUM_PAGES, n)
    if geo.physically_indexed:
        page += (np.arange(n) // lpp) % ncp - page % ncp
    valid = rng.random(n) < 0.8
    cache._tags[0] = np.where(valid, page * lpp + np.arange(n) % lpp,
                              INVALID)
    cache._dirty[0] = valid & (rng.random(n) < dirty_p)
    cache._lru[0] = rng.permutation(n) + 1
    cache._tick = n + 1
    sets = slice(cache_page * lpp, (cache_page + 1) * lpp)
    tags, dirty = cache._tags[0, sets], cache._dirty[0, sets]
    want = frame * lpp + np.arange(lpp)
    # No line of the frame is resident but the chosen ones.
    strays = np.flatnonzero(tags == want)
    tags[strays] = INVALID
    dirty[strays] = False
    tags[resident] = want[resident]
    dirty[resident] = rng.random(len(resident)) < dirty_p
    if alias:
        other = slice(((cache_page + 1) % ncp) * lpp,
                      ((cache_page + 1) % ncp + 1) * lpp)
        held = np.flatnonzero(tags != INVALID)
        cache._tags[0, other][held] = tags[held]
        cache._dirty[0, other][held] = True
        cache._data[0, other][held] = rng.integers(
            0, 2**32, (len(held), geo.words_per_line), dtype=np.uint64)
    hierarchy = cache.hierarchy
    if hierarchy is not None:
        # Clean copies of some of the frame's lines below the L1, so a
        # fill can take them from there and a store must drop them.
        for i in rng.choice(lpp, size=lpp // 4, replace=False).tolist():
            tag = frame * lpp + i
            line = cache.memory.read_line(tag * LINE, geo.words_per_line)
            hierarchy.capture(tag, line)
            hierarchy.l2.insert(tag, line)


def page_pair(cache, rng, cache_page):
    """A (va, pa) page pair that lands in ``cache_page``."""
    geo = cache.geo
    ncp = geo.num_cache_pages
    if geo.physically_indexed:
        frame = cache_page + ncp * int(rng.integers(0, NUM_PAGES // ncp))
    else:
        frame = int(rng.integers(0, NUM_PAGES))
    vpage = cache_page + ncp * int(rng.integers(0, 16))
    return vpage * PAGE, frame * PAGE


def state(cache):
    out = [cache._tags.tolist(), cache._dirty.tolist(), cache._data.tolist(),
           cache._lru.tolist(), cache._tick, cache.memory._words.tolist(),
           cache.clock.cycles, cache.counters.snapshot(),
           encode_counters(cache.counters)]
    if cache.hierarchy is not None:
        out += [cache.hierarchy._epochs.tolist(),
                hierarchy_tags(cache.hierarchy), cache._fill_epoch.tolist()]
    return out


RESIDENT = {"all-hit": 1.0, "all-miss": 0.0, "mixed": 0.5}


def build(cell, seed, shape, dirty_p, alias):
    """Two identical caches and the target (va, pa) of one case."""
    caches = []
    for _ in range(2):
        cache = make_cache(cell)
        rng = np.random.default_rng(seed)
        cache_page = int(rng.integers(0, cache.geo.num_cache_pages))
        va, pa = page_pair(cache, rng, cache_page)
        lpp = cache.geo.lines_per_page
        resident = np.flatnonzero(rng.random(lpp) < RESIDENT[shape])
        seed_state(cache, rng, cache_page, pa // PAGE, resident, dirty_p,
                   alias)
        caches.append(cache)
    return caches, va, pa


# ---- the cases ---------------------------------------------------------------------

SHAPES = sorted(RESIDENT)
DIRTY = {"clean": 0.0, "dirty": 0.5, "all-dirty": 1.0}
#: (cell, alias): doubly-dirty aliases need a second cache page for a
#: line, which physical indexing never gives it.
CELL_ALIAS = [(cell, alias) for cell in sorted(CELLS)
              for alias in (False, True)
              if not (alias and CELLS[cell][1].get("physically_indexed"))]


@pytest.mark.parametrize("dirty", sorted(DIRTY))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cell,alias", CELL_ALIAS)
def test_read_page_matches_the_reference(cell, alias, shape, dirty):
    seed = zlib.crc32(f"read/{cell}/{shape}/{dirty}/{alias}".encode())
    (live, ref), va, pa = build(cell, seed, shape, DIRTY[dirty], alias)
    got = live.read_page(va, pa)
    want = ref_read_page(ref, va, pa)
    np.testing.assert_array_equal(got, want)
    assert state(live) == state(ref)
    got[:] = 0                           # the caller owns the result
    assert state(live) == state(ref)


@pytest.mark.parametrize("op", ("write", "zero"))
@pytest.mark.parametrize("dirty", sorted(DIRTY))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cell,alias", CELL_ALIAS)
def test_write_page_matches_the_reference(cell, alias, shape, dirty, op):
    seed = zlib.crc32(f"write/{cell}/{shape}/{dirty}/{alias}/{op}".encode())
    (live, ref), va, pa = build(cell, seed, shape, DIRTY[dirty], alias)
    if op == "zero":
        live.zero_page(va, pa)
        ref_zero_page(ref, va, pa)
    else:
        values = np.random.default_rng(seed).integers(0, 2**32, WPP,
                                                      dtype=np.uint64)
        live.write_page(va, pa, values)
        ref_write_page(ref, va, pa, values)
    assert state(live) == state(ref)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_sequences_match_the_reference(cell, seed):
    """Random page reads, page writes and zero-fills over one evolving
    state, with CPU stores between them dirtying single lines (through
    aliases too, where the indexing allows), compared after every step."""
    (live, ref), _, _ = build(cell, 500 + seed, "mixed", 0.5, False)
    rng = np.random.default_rng(900 + seed)
    for step in range(30):
        cache_page = int(rng.integers(0, live.geo.num_cache_pages))
        va, pa = page_pair(live, rng, cache_page)
        if rng.random() < 0.5:
            for off in rng.choice(WPP, size=8, replace=False).tolist():
                value = int(rng.integers(0, 2**32))
                live.write(va + 4 * off, pa + 4 * off, value)
                ref.write(va + 4 * off, pa + 4 * off, value)
        kind = rng.integers(0, 3)
        if kind == 0:
            np.testing.assert_array_equal(live.read_page(va, pa),
                                          ref_read_page(ref, va, pa))
        elif kind == 1:
            values = rng.integers(0, 2**32, WPP, dtype=np.uint64)
            live.write_page(va, pa, values)
            ref_write_page(ref, va, pa, values)
        else:
            live.zero_page(va, pa)
            ref_zero_page(ref, va, pa)
        assert state(live) == state(ref), f"step {step}"


@pytest.mark.parametrize("op", ("read", "write", "zero"))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_a_page_of_dirty_victims_matches_the_reference(cell, op):
    """Every line of the cache page holds another frame's dirty line, so
    every line is a victim: the shape whose write-back takes the victims'
    tags whole.  (The random states above leave a fifth of the lines
    invalid, so they never reach it.)"""
    seed = zlib.crc32(f"victims/{cell}/{op}".encode())
    (live, ref), va, pa = build(cell, seed, "all-miss", 1.0, False)
    geo = live.geo
    lpp = geo.lines_per_page
    cache_page = live.cache_page_of(va, pa)
    sets = slice(cache_page * lpp, (cache_page + 1) * lpp)
    step = geo.num_cache_pages if geo.physically_indexed else 1
    other = (pa // PAGE + step) % NUM_PAGES
    for cache in (live, ref):
        cache._tags[0, sets] = other * lpp + np.arange(lpp)
        cache._dirty[0, sets] = True
    if op == "read":
        np.testing.assert_array_equal(live.read_page(va, pa),
                                      ref_read_page(ref, va, pa))
    elif op == "zero":
        live.zero_page(va, pa)
        ref_zero_page(ref, va, pa)
    else:
        values = np.random.default_rng(seed).integers(0, 2**32, WPP,
                                                      dtype=np.uint64)
        live.write_page(va, pa, values)
        ref_write_page(ref, va, pa, values)
    assert state(live) == state(ref)
    if not geo.write_through:
        assert live.counters.write_backs == lpp
