"""The page flush/purge shapes against the masked reference.

On a direct-mapped cache, :meth:`Cache.flush_page_frame` and
:meth:`Cache.purge_page_frame` split on how many lines of the frame are
resident: none touches no array, the whole page clears its set slice
(an all-dirty page writes back as one page copy), up to four lines move
one by one and more by one gather and scatter.  Associative caches keep
the masked form over every way.

Every shape must leave exactly the state the masked form leaves.  The
reference below is that form, kept verbatim: each case builds two
identical caches from one random state, runs the live operation on one
and the reference on the other, and compares tags, dirty bits, data,
memory, the clock, the counters, the published bus event and, with a
hierarchy below, the lower levels and their memory epochs.
"""

import zlib

import numpy as np
import pytest

from repro.hw.cache import (Cache, fill_lines, flush_lines, purge_lines,
                            store_lines, write_back_victims)
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import CacheGeometry, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason
from repro.obs.events import EventBus
from tests.hw.cache_helpers import hierarchy_tags

PAGE = 4096
LINE = 32
NUM_PAGES = 16
INVALID = -1

#: (cell name, Cache keyword arguments, geometry keyword arguments).
CELLS = {
    "dcache": ({}, {}),
    "dcache-physical": ({}, {"physically_indexed": True}),
    "dcache-exact": ({"exact": True}, {}),
    "icache": ({"is_icache": True}, {}),
    "icache-exact": ({"is_icache": True, "exact": True}, {}),
    "dcache-2way": ({}, {"associativity": 2}),
    "dcache-hierarchy": ({"hierarchy": True}, {}),
}
RESIDENT = ("none", "one", "two", "some", "all")
DIRTY = ("none", "some", "all")


# ---- the reference: the masked form over every way -------------------------


def ref_flush(cache, cache_page, pa_page_base, reason):
    sets = cache._page_sets(cache_page)
    want = cache._page_tags(pa_page_base)
    match = cache._tags[:, sets] == want
    hits = int(match.sum())
    dirty_match = match & cache._dirty[:, sets]
    n_dirty = int(dirty_match.sum())
    if n_dirty:
        ways, lines = np.nonzero(dirty_match)
        cache.memory.write_lines(want[lines],
                                 cache._data[:, sets][ways, lines],
                                 cache.geo.words_per_line)
        cache.counters.write_backs += n_dirty
        if cache.hierarchy is not None:
            for tag in want[lines]:
                cache.hierarchy.note_memory_write(int(tag))
    cache._tags[:, sets][match] = INVALID
    cache._dirty[:, sets][match] = False
    if cache.exact_management:
        cycles = (hits * cache.cost.flush_line_hit
                  + n_dirty * cache.cost.write_back)
    else:
        lpp = cache.geo.lines_per_page
        cycles = (hits * cache.cost.flush_line_hit
                  + (lpp - hits) * cache.cost.flush_line_miss
                  + n_dirty * cache.cost.write_back)
    cache.clock.advance(cycles)
    cache.counters.record_flush(cache.name, reason, cycles)
    if cache.bus is not None and cache.bus.enabled:
        cache.bus.publish("flush", cache=cache.name, cache_page=cache_page,
                          frame=pa_page_base // cache.geo.page_size,
                          reason=str(reason), resident=hits,
                          cost_cycles=cycles)
    return hits


def ref_purge(cache, cache_page, pa_page_base, reason):
    sets = cache._page_sets(cache_page)
    want = cache._page_tags(pa_page_base)
    match = cache._tags[:, sets] == want
    hits = int(match.sum())
    cache._tags[:, sets][match] = INVALID
    cache._dirty[:, sets][match] = False
    if cache.is_icache:
        cycles = cache.cost.icache_purge_page
    elif cache.exact_management:
        cycles = hits * cache.cost.purge_line_hit
    else:
        lpp = cache.geo.lines_per_page
        cycles = (hits * cache.cost.purge_line_hit
                  + (lpp - hits) * cache.cost.purge_line_miss)
    cache.clock.advance(cycles)
    cache.counters.record_purge(cache.name, reason, cycles)
    if cache.bus is not None and cache.bus.enabled:
        cache.bus.publish("purge", cache=cache.name, cache_page=cache_page,
                          frame=pa_page_base // cache.geo.page_size,
                          reason=str(reason), resident=hits,
                          cost_cycles=cycles)
    return hits


LIVE = {"flush": Cache.flush_page_frame, "purge": Cache.purge_page_frame}
REF = {"flush": ref_flush, "purge": ref_purge}


# ---- building two identical caches from one random state ---------------------


def make_cache(cell):
    opts, geo_opts = CELLS[cell]
    geo = CacheGeometry(size=16 * 1024, line_size=LINE, page_size=PAGE,
                        **geo_opts)
    memory = PhysicalMemory(num_pages=NUM_PAGES, page_size=PAGE)
    clock, counters = Clock(), Counters()
    hierarchy = None
    if opts.get("hierarchy"):
        hierarchy = CacheHierarchy(memory, CostModel(), clock, counters, LINE,
                                   victim_lines=8,
                                   l2=L2Geometry(size=8 * 1024, line_size=LINE,
                                                 associativity=2))
    is_icache = opts.get("is_icache", False)
    cache = Cache(geo, memory, CostModel(), clock, counters,
                  name="icache" if is_icache else "dcache",
                  is_icache=is_icache, hierarchy=hierarchy)
    cache.exact_management = opts.get("exact", False)
    cache.bus = EventBus(clock).enable()
    return cache


def _pick(rng, n, how):
    """How many of ``n`` items a none/one/two/some/all label selects."""
    if how == "none" or n == 0:
        return 0
    if how == "one":
        return 1
    if how == "two":
        return min(2, n)
    if how == "all":
        return n
    return int(rng.integers(1, n)) if n > 1 else 1


def seed_state(cache, rng, frame, cache_page, resident, dirty):
    """Random cache, memory and hierarchy contents, with ``resident`` lines
    of ``frame`` in ``cache_page`` and ``dirty`` of those dirty.  The
    other lines of the cache page are empty or hold other frames' lines
    at the same page offset, some of them dirty too."""
    geo = cache.geo
    lpp, ways = geo.lines_per_page, geo.associativity
    cache.memory._words[:] = rng.integers(0, 2**32, cache.memory._words.size,
                                          dtype=np.uint64)
    cache._data[:] = rng.integers(0, 2**32, cache._data.shape,
                                  dtype=np.uint64)
    for way in range(ways):
        for s in range(geo.num_sets):
            other = int(rng.integers(0, NUM_PAGES))
            if other == frame or rng.random() < 0.3:
                cache._tags[way, s] = INVALID
            else:
                cache._tags[way, s] = other * lpp + s % lpp
            cache._dirty[way, s] = (cache._tags[way, s] != INVALID
                                    and rng.random() < 0.5)
    n_res = _pick(rng, lpp, resident)
    lines = np.sort(rng.choice(lpp, size=n_res, replace=False))
    n_dirty = _pick(rng, n_res, dirty)
    dirty_lines = set(rng.choice(lines, size=n_dirty, replace=False).tolist())
    s0 = cache_page * lpp
    for i in lines.tolist():
        way = int(rng.integers(0, ways))
        cache._tags[way, s0 + i] = frame * lpp + i
        cache._dirty[way, s0 + i] = i in dirty_lines
    hierarchy = cache.hierarchy
    if hierarchy is not None:
        # Clean copies of some of the frame's lines below the L1, so the
        # per-line memory-write notices have something to invalidate.
        for i in rng.choice(lpp, size=lpp // 4, replace=False).tolist():
            tag = frame * lpp + i
            hierarchy.capture(tag, cache.memory.read_line(tag * LINE,
                                                          geo.words_per_line))
            if hierarchy.l2 is not None:
                hierarchy.l2.insert(tag, cache.memory.read_line(
                    tag * LINE, geo.words_per_line))
    return n_res, n_dirty


def pair(cell, seed, frame, cache_page, resident, dirty):
    caches = []
    for _ in range(2):
        cache = make_cache(cell)
        counts = seed_state(cache, np.random.default_rng(seed), frame,
                            cache_page, resident, dirty)
        caches.append(cache)
    return caches, counts


def target(cache, rng):
    frame = int(rng.integers(0, NUM_PAGES))
    if cache.geo.physically_indexed:
        return frame, cache.geo.cache_page(frame * PAGE)
    return frame, int(rng.integers(0, cache.geo.num_cache_pages))


def assert_same(live, ref):
    np.testing.assert_array_equal(live._tags, ref._tags)
    np.testing.assert_array_equal(live._dirty, ref._dirty)
    np.testing.assert_array_equal(live._data, ref._data)
    np.testing.assert_array_equal(live.memory._words, ref.memory._words)
    assert live.clock.cycles == ref.clock.cycles
    assert live.counters.snapshot() == ref.counters.snapshot()
    for name in ("page_flushes", "page_purges", "flush_cycles",
                 "purge_cycles"):
        assert getattr(live.counters, name) == getattr(ref.counters, name)
    assert live.counters.write_backs == ref.counters.write_backs
    assert ([(e.seq, e.cycles, e.kind, e.detail) for e in live.bus.events()]
            == [(e.seq, e.cycles, e.kind, e.detail) for e in ref.bus.events()])
    if live.hierarchy is not None:
        np.testing.assert_array_equal(live.hierarchy._epochs,
                                      ref.hierarchy._epochs)
        assert (hierarchy_tags(live.hierarchy)
                == hierarchy_tags(ref.hierarchy))
        np.testing.assert_array_equal(live._fill_epoch, ref._fill_epoch)


# ---- the cases -----------------------------------------------------------------


@pytest.mark.parametrize("op", ["flush", "purge"])
@pytest.mark.parametrize("dirty", DIRTY)
@pytest.mark.parametrize("resident", RESIDENT)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_one_operation_matches_the_masked_form(cell, resident, dirty, op):
    seed = zlib.crc32(f"{cell}/{resident}/{dirty}/{op}".encode())
    rng = np.random.default_rng(seed)
    frame, cache_page = target(make_cache(cell), rng)
    (live, ref), (n_res, n_dirty) = pair(cell, seed, frame, cache_page,
                                         resident, dirty)
    base = frame * PAGE
    got = LIVE[op](live, cache_page, base, Reason.ALIAS_WRITE)
    want = REF[op](ref, cache_page, base, Reason.ALIAS_WRITE)
    assert got == want == n_res
    assert_same(live, ref)
    if op == "flush":
        assert live.counters.write_backs == n_dirty
    assert live.resident_lines(cache_page, base) == 0


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("seed", range(3))
def test_operation_sequences_match_the_masked_form(cell, seed):
    """Random flushes and purges over one evolving cache state, with CPU
    stores between them re-dirtying lines, compared after every step."""
    rng = np.random.default_rng(1000 + seed)
    frame, cache_page = target(make_cache(cell), rng)
    (live, ref), _ = pair(cell, 1000 + seed, frame, cache_page, "some",
                          "some")
    for step in range(40):
        frame, cache_page = target(live, rng)
        base = frame * PAGE
        if rng.random() < 0.4 and not live.is_icache:
            # Refill part of the page through the CPU path, dirty.
            va = cache_page * PAGE if not live.geo.physically_indexed \
                else base
            for off in rng.choice(PAGE // 4, size=16, replace=False):
                value = int(rng.integers(0, 2**32))
                live.write(va + 4 * int(off), base + 4 * int(off), value)
                ref.write(va + 4 * int(off), base + 4 * int(off), value)
        op = "flush" if rng.random() < 0.5 else "purge"
        reason = (Reason.ALIAS_WRITE, Reason.DMA_READ,
                  Reason.UNMAP_EAGER)[step % 3]
        assert (LIVE[op](live, cache_page, base, reason)
                == REF[op](ref, cache_page, base, reason))
        assert_same(live, ref)


#: the cells whose page operations run the page kernels: direct-mapped,
#: with no hierarchy below
KERNEL_CELLS = sorted(cell for cell, (opts, geo_opts) in CELLS.items()
                      if "associativity" not in geo_opts
                      and not opts.get("hierarchy"))


@pytest.mark.parametrize("dirty", DIRTY)
@pytest.mark.parametrize("resident", RESIDENT)
@pytest.mark.parametrize("cell", KERNEL_CELLS)
def test_the_page_kernels_return_python_ints(cell, resident, dirty):
    """Every count a page kernel returns is a Python ``int``, in every
    shape: a numpy integer would reach the counters, and from them JSON
    encoders that refuse it."""
    seed = zlib.crc32(f"kernels/{cell}/{resident}/{dirty}".encode())
    rng = np.random.default_rng(seed)
    cache = make_cache(cell)
    frame, cache_page = target(cache, rng)
    seed_state(cache, rng, frame, cache_page, resident, dirty)
    sets = cache._page_sets(cache_page)
    want = cache._page_tags(frame * PAGE)
    lines = rng.integers(0, 2**32, cache._data[0, sets].shape,
                         dtype=np.uint64)

    def views():
        """Fresh copies of the page's way-0 views and of memory."""
        return (cache._tags[0, sets].copy(), cache._dirty[0, sets].copy(),
                cache._data[0, sets].copy(), cache._mem_lines.copy())

    counts = {
        "flush_lines": flush_lines(*views(), want),
        "purge_lines": purge_lines(*views()[:2], want),
        "fill_lines": fill_lines(*views(), want),
        "store_lines": store_lines(*views(), want, lines),
    }
    tv, dyv, datv, mem_lines = views()
    counts["write_back_victims"] = write_back_victims(
        tv, dyv, datv, mem_lines, tv != want)
    # Every line another frame's and dirty: every line a victim.
    tv[:] = want + len(want) if frame + 1 < NUM_PAGES else want - len(want)
    dyv[:] = True
    counts["write_back_victims/every-line"] = write_back_victims(
        tv, dyv, datv, mem_lines, tv != want)
    assert counts["write_back_victims/every-line"] == len(want)
    for name, got in counts.items():
        for count in got if isinstance(got, tuple) else (got,):
            assert type(count) is int, (name, got)
