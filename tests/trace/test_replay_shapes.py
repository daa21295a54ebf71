"""Shape tests for the replay interpreter's page handlers.

The interpreter executes page flushes, purges, page reads and page
writes on a direct-mapped write-back cache by calling the cache's page
kernels, which split by the shape the page is in (how many of its lines
are resident, how many of those are dirty, whether any set it lands on
is dirty), and keeps the accounting itself.  Since the live methods call
the same kernels, these tests check the interpreter's accounting and
operands; ``tests/hw/test_page_read_write_reference.py`` and
``tests/hw/test_page_frame_shapes.py`` check the kernels against
independent references.  Each test here builds a random cache state,
shapes the target page, then runs a one-row op-stream through
``_compile``/``_execute`` on one copy of the machine and the live
:class:`Cache` method on an identical copy, and compares everything
either can touch: tags, dirty bits, data, LRU stamps and tick of both
caches, memory, the clock, the counters snapshot and the full-fidelity
counters encoding.

Random states keep the cache's index invariant: the line held by set
``s`` has page offset ``s % lines_per_page``, so a physical line can sit
in one set per cache page (physically indexed, in one set only).
Aliases of a line therefore sit in different cache pages;
``alias=True`` copies every valid line of the target cache page, dirty
and with different data, into the other cache page (doubly-dirty
aliases of the target's lines and of its victims).
"""

import copy

import numpy as np
import pytest

from repro.hw.cache import _INVALID, Cache
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason
from repro.trace.format import (OP_D_FLUSH, OP_D_PURGE, OP_D_READ_PAGE,
                                OP_D_WRITE_PAGE, OP_D_ZERO_PAGE, OP_I_PURGE,
                                REASON_INDEX, encode_counters)
from repro.trace.interp import _run

PAGE = 4096
NPAGES = 8
GEOMETRIES = {
    "virtual": CacheGeometry(size=8 * 1024, page_size=PAGE),
    "physical": CacheGeometry(size=8 * 1024, page_size=PAGE,
                              physically_indexed=True),
}
LPP = GEOMETRIES["virtual"].lines_per_page
WPL = GEOMETRIES["virtual"].words_per_line
WPP = PAGE // WORD_SIZE
REASON = Reason.EXPLICIT


def random_machine(rng, geo, dirty_p):
    """Memory and two caches in a random state sharing one clock and
    counters, as on the replay machine."""
    memory = PhysicalMemory(NPAGES, PAGE)
    memory._words[:] = rng.integers(0, 2**32, len(memory._words),
                                    dtype=np.uint64)
    clock, counters = Clock(), Counters()
    caches = []
    for name in ("dcache", "icache"):
        cache = Cache(geo, memory, CostModel(), clock, counters, name=name,
                      is_icache=name == "icache")
        n = geo.num_sets
        valid = rng.random(n) < 0.8
        page = rng.integers(0, NPAGES, n)
        if geo.physically_indexed:
            # a physical line sits only in the cache page its address picks
            ncp = geo.num_cache_pages
            page += (np.arange(n) // LPP) % ncp - page % ncp
        cache._tags[0] = np.where(valid, page * LPP + np.arange(n) % LPP,
                                  _INVALID)
        cache._dirty[0] = valid & (rng.random(n) < dirty_p)
        cache._data[0] = rng.integers(0, 2**32, (n, WPL), dtype=np.uint64)
        cache._lru[0] = rng.permutation(n) + 1
        cache._tick = n + 1
        caches.append(cache)
    return memory, caches[0], caches[1]


def shape_page(rng, cache, cp, ppage, resident, dirty, alias=False):
    """Make exactly the line indices ``resident`` of physical page
    ``ppage`` resident in cache page ``cp``, dirty exactly at ``dirty``.
    Every other set of the cache page holds another page's line or
    nothing."""
    sets = slice(cp * LPP, (cp + 1) * LPP)
    tags, dirty_bits = cache._tags[0, sets], cache._dirty[0, sets]
    want = ppage * LPP + np.arange(LPP)
    stray = np.flatnonzero(tags == want)
    step = cache.geo.num_cache_pages if cache.geo.physically_indexed else 1
    others = [p for p in range(ppage % step, NPAGES, step) if p != ppage]
    tags[stray] = rng.choice(others, len(stray)) * LPP + stray
    tags[list(resident)] = want[list(resident)]
    dirty_bits[list(resident)] = False
    dirty_bits[list(dirty)] = True
    if alias:
        assert not cache.geo.physically_indexed, "no aliases there"
        other = slice((1 - cp) * LPP, (2 - cp) * LPP)
        held = np.flatnonzero(tags != _INVALID)
        cache._tags[0, other][held] = tags[held]
        cache._dirty[0, other][held] = True
        cache._data[0, other][held] = rng.integers(
            0, 2**32, (len(held), WPL), dtype=np.uint64)


def state(memory, dcache, icache):
    return ([(c._tags.tolist(), c._dirty.tolist(), c._data.tolist(),
              c._lru.tolist(), c._tick) for c in (dcache, icache)],
            memory._words.tolist(), dcache.clock.cycles,
            dcache.counters.snapshot(), encode_counters(dcache.counters))


def check_row(machine, row, live, values=()):
    """Replay ``row`` on a copy of ``machine`` and run ``live`` on
    another; both must end in the same state."""
    replayed = copy.deepcopy(machine)
    values = np.asarray(values, dtype=np.uint64)
    consumed = _run([row], values, [], replayed[1], replayed[2],
                    replayed[0], None)
    assert consumed == len(values)
    expected = copy.deepcopy(machine)
    live(*expected)
    assert state(*replayed) == state(*expected)


def pick(rng, k, within=range(LPP)):
    return sorted(rng.choice(list(within), k, replace=False).tolist())


# ---- flush ------------------------------------------------------------------

# resident line counts: one, two (the paper traces' commonest flush), a
# few, many, every line; each with none, some or all of them dirty, plus
# the page with no line resident
FLUSH_SHAPES = [(0, "none")] + [(n, dirty) for n in (1, 2, 5, 40, LPP)
                                for dirty in ("none", "some", "all")]


@pytest.mark.parametrize("n_resident,dirty", FLUSH_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_flush(n_resident, dirty, seed):
    rng = np.random.default_rng(seed)
    machine = random_machine(rng, GEOMETRIES["virtual"], dirty_p=0.5)
    cp, ppage = seed % 2, int(rng.integers(NPAGES))
    resident = pick(rng, n_resident)
    n_dirty = {"none": 0, "some": max(1, n_resident // 2),
               "all": n_resident}[dirty]
    shape_page(rng, machine[1], cp, ppage, resident,
               pick(rng, n_dirty, resident), alias=seed == 2)
    assert machine[1].resident_lines(cp, ppage * PAGE) == n_resident
    check_row(machine, (OP_D_FLUSH, REASON_INDEX[REASON], cp, 0,
                        ppage * PAGE),
              lambda m, d, i: d.flush_page_frame(cp, ppage * PAGE, REASON))


# ---- purge ------------------------------------------------------------------

@pytest.mark.parametrize("which", ("dcache", "icache"))
@pytest.mark.parametrize("n_resident", (0, 3, 40, LPP))
@pytest.mark.parametrize("seed", range(3))
def test_purge(which, n_resident, seed):
    rng = np.random.default_rng(seed)
    machine = random_machine(rng, GEOMETRIES["virtual"], dirty_p=0.5)
    cache = machine[1] if which == "dcache" else machine[2]
    cp, ppage = seed % 2, int(rng.integers(NPAGES))
    resident = pick(rng, n_resident)
    shape_page(rng, cache, cp, ppage, resident, resident[::2])
    op = OP_D_PURGE if which == "dcache" else OP_I_PURGE
    index = 1 if which == "dcache" else 2
    check_row(machine, (op, REASON_INDEX[REASON], cp, 0, ppage * PAGE),
              lambda *m: m[index].purge_page_frame(cp, ppage * PAGE, REASON))


# ---- page read ----------------------------------------------------------------

def page_pair(rng, geo, cp):
    """A (va, pa) page pair whose page lands in cache page ``cp``."""
    ppage = int(rng.integers(NPAGES))
    if geo.physically_indexed:
        ppage = ppage - ppage % 2 + cp
    vpage = 2 * int(rng.integers(16)) + cp
    return vpage * PAGE, ppage * PAGE


@pytest.mark.parametrize("geo", sorted(GEOMETRIES))
@pytest.mark.parametrize("shape", ("all-hit", "all-miss", "all-miss-clean",
                                   "mixed"))
@pytest.mark.parametrize("seed", range(4))
def test_read_page(geo, shape, seed):
    rng = np.random.default_rng(seed)
    geometry = GEOMETRIES[geo]
    machine = random_machine(rng, geometry,
                             dirty_p=0.0 if shape == "all-miss-clean" else 0.5)
    cp = seed % 2
    va, pa = page_pair(rng, geometry, cp)
    n_resident = {"all-hit": LPP, "mixed": 60}.get(shape, 0)
    resident = pick(rng, n_resident)
    shape_page(rng, machine[1], cp, pa // PAGE, resident, resident[::3],
               alias=geo == "virtual" and (shape == "mixed" or seed == 3))
    if shape == "all-miss-clean":
        machine[1]._dirty[0, cp * LPP:(cp + 1) * LPP] = False
    check_row(machine, (OP_D_READ_PAGE, 0, va, 0, pa),
              lambda m, d, i: d.read_page(va, pa))


# ---- page write ---------------------------------------------------------------

@pytest.mark.parametrize("geo", sorted(GEOMETRIES))
@pytest.mark.parametrize("victims", ("dirty", "clean", "none"))
@pytest.mark.parametrize("zero", (False, True))
@pytest.mark.parametrize("seed", range(3))
def test_write_page(geo, victims, zero, seed):
    rng = np.random.default_rng(seed)
    geometry = GEOMETRIES[geo]
    machine = random_machine(rng, geometry,
                             dirty_p=0.5 if victims == "dirty" else 0.0)
    cp = seed % 2
    va, pa = page_pair(rng, geometry, cp)
    resident = pick(rng, 30)
    shape_page(rng, machine[1], cp, pa // PAGE, resident,
               resident[::2] if victims == "dirty" else [],
               alias=geo == "virtual" and victims == "dirty" and seed == 2)
    if victims == "none":
        machine[1]._tags[0, cp * LPP:(cp + 1) * LPP] = _INVALID
    if zero:
        check_row(machine, (OP_D_ZERO_PAGE, 0, va, 0, pa),
                  lambda m, d, i: d.zero_page(va, pa))
    else:
        values = rng.integers(0, 2**32, WPP, dtype=np.uint64)
        check_row(machine, (OP_D_WRITE_PAGE, 0, va, WPP, pa),
                  lambda m, d, i: d.write_page(va, pa, values), values)
