"""The lower cache hierarchy: victim cache and unified L2 below the L1s.

The paper's machine has a single-level cache; Section 3.3 argues the
consistency rules transfer *unchanged* to richer hierarchies because
the alias problem lives entirely in the virtually indexed L1.  This
module supplies the two lower levels that claim is tested against:

* a small **fully associative victim cache** (Jouppi-style) that
  captures lines evicted from the L1 and satisfies later misses to
  them cheaply, and
* an optional **unified, physically indexed L2** that holds clean
  copies of lines fetched from memory.

Both levels are *physically tagged* and hold **clean copies only**:
a dirty L1 write-back goes all the way to physical memory exactly as
in the seed simulator, and only then may the (now clean) line be
captured below.  This "clean-copy invariant" is what keeps the derived
Table 2 tables unchanged — the lower levels can never hold the only
up-to-date copy of anything, so no new consistency state is needed and
flush/purge semantics at the L1 are untouched.

One subtlety *is* handled here: a clean L1 line can still be **stale**
under the paper's lazy-purge discipline (memory was updated through a
different virtual alias, by another CPU, or by DMA, and the purge of
this alias is deferred until its next use).  Capturing such a line into
the victim cache would let it outlive the purge that software
eventually issues, because the victim cache is physically tagged and
invisible to virtual-address purges.  The hierarchy therefore keeps a
per-line *epoch* counter, bumped on **every** write to that line of
physical memory that happens outside a capture (dirty write-backs,
write-through stores, DMA writes, uncached stores); the L1 stamps each
fill with its line's epoch and only clean lines whose stamp is still
current may be captured.  Dirty victims are written back first, which
re-stamps them, so they are always capture-current by construction.
The invariant this maintains — *every line resident below the L1s
equals current physical memory* — is exactly what makes the lower
levels invisible to Table 2: a fill served from the victim cache or
the L2 returns bit-for-bit what a fill from memory would have.

Cycle accounting: :meth:`CacheHierarchy.fetch_line` charges the clock
itself — ``cost.victim_hit`` or ``cost.l2_hit`` on a lower-level hit,
``cost.line_fill`` on a fall-through to memory — so the degenerate
hierarchy (no victim entries, no L2) charges exactly what the seed
simulator charges and is bit-identical to it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.hw.params import WORD_SIZE, CostModel, L2Geometry
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters

_INVALID = -1


class VictimCache:
    """A small fully associative, physically tagged cache of clean lines.

    Replacement is FIFO over insertion order (deterministic, documented):
    a capture of a new tag evicts the oldest entry when full; re-capturing
    a resident tag refreshes its data but *not* its queue position; a hit
    removes the entry (the line moves back up into the L1 — a swap, as in
    Jouppi's design).
    """

    def __init__(self, n_lines: int, words_per_line: int):
        self.n_lines = n_lines
        self.words_per_line = words_per_line
        self._lines: OrderedDict[int, np.ndarray] = OrderedDict()

    def capture(self, tag: int, data: np.ndarray) -> None:
        if self.n_lines == 0:
            return
        if tag in self._lines:
            self._lines[tag][:] = data          # refresh, keep FIFO position
            return
        if len(self._lines) >= self.n_lines:
            self._lines.popitem(last=False)     # evict the oldest entry
        self._lines[tag] = np.array(data, dtype=np.uint64, copy=True)

    def take(self, tag: int) -> np.ndarray | None:
        """Remove and return the line for ``tag``, or None on a miss."""
        return self._lines.pop(tag, None)

    def invalidate(self, tag: int) -> None:
        self._lines.pop(tag, None)

    def invalidate_range(self, first_tag: int, last_tag: int) -> None:
        for tag in [t for t in self._lines if first_tag <= t <= last_tag]:
            del self._lines[tag]


class L2Cache:
    """A unified, physically indexed, set-associative cache of clean lines.

    Indexed by ``line_tag % num_sets`` — pure physical indexing, so the
    virtual-alias problem cannot arise at this level (Section 3.3).
    Replacement is LRU with the same deterministic tie-break as the L1:
    the lowest-numbered invalid way first, else the least recently
    touched way.
    """

    def __init__(self, geo: L2Geometry, words_per_line: int):
        self.geo = geo
        self.words_per_line = words_per_line
        shape = (geo.associativity, geo.num_sets)
        self._tags = np.full(shape, _INVALID, dtype=np.int64)
        self._lru = np.zeros(shape, dtype=np.int64)
        self._data = np.zeros(shape + (words_per_line,), dtype=np.uint64)
        self._tick = 0

    def _set_of(self, tag: int) -> int:
        return tag % self.geo.num_sets

    def _touch(self, way: int, set_index: int) -> None:
        self._tick += 1
        self._lru[way, set_index] = self._tick

    def lookup(self, tag: int) -> np.ndarray | None:
        """Return (a copy of) the line for ``tag``, or None on a miss."""
        set_index = self._set_of(tag)
        ways = np.flatnonzero(self._tags[:, set_index] == tag)
        if ways.size == 0:
            return None
        way = int(ways[0])
        self._touch(way, set_index)
        return self._data[way, set_index].copy()

    def insert(self, tag: int, data: np.ndarray) -> None:
        set_index = self._set_of(tag)
        ways = np.flatnonzero(self._tags[:, set_index] == tag)
        if ways.size:
            way = int(ways[0])                  # refresh in place
        else:
            empties = np.flatnonzero(self._tags[:, set_index] == _INVALID)
            if empties.size:
                way = int(empties[0])
            else:
                way = int(np.argmin(self._lru[:, set_index]))
        self._tags[way, set_index] = tag
        self._data[way, set_index] = data
        self._touch(way, set_index)

    def invalidate(self, tag: int) -> None:
        set_index = self._set_of(tag)
        ways = np.flatnonzero(self._tags[:, set_index] == tag)
        for way in ways:
            self._tags[way, set_index] = _INVALID
            self._lru[way, set_index] = 0

    def invalidate_range(self, first_tag: int, last_tag: int) -> None:
        mask = (self._tags >= first_tag) & (self._tags <= last_tag)
        self._tags[mask] = _INVALID
        self._lru[mask] = 0


class CacheHierarchy:
    """The shared lower levels: victim cache and/or L2 in front of memory.

    One instance sits below *all* the machine's first-level caches (the
    per-CPU data caches and the instruction cache): the victim cache
    and L2 are physically addressed, so sharing them is safe and mirrors
    a real unified lower hierarchy.

    The L1s interact with it through four calls:

    * :meth:`fetch_line` — serve an L1 miss (victim, then L2, then
      memory), charging the clock for whichever source supplied it;
    * :meth:`capture` — offer an evicted L1 line for caching below
      (callers pass only epoch-current lines; see module docstring);
    * :meth:`note_memory_write` / :meth:`note_memory_write_range` — a
      line of physical memory was just (re)written (dirty write-back,
      write-through store): drop any lower-level copy and bump the
      line's epoch;
    * :meth:`invalidate_page` / :meth:`invalidate_span` — memory was
      written behind the caches entirely (DMA, uncached stores): the
      page/span form of the same notification.
    """

    def __init__(self, memory: PhysicalMemory, cost: CostModel,
                 clock: Clock, counters: Counters, line_size: int,
                 victim_lines: int = 0, l2: L2Geometry | None = None):
        self.memory = memory
        self.cost = cost
        self.clock = clock
        self.counters = counters
        self.line_size = line_size
        self.lines_per_page = memory.page_size // line_size
        words_per_line = line_size // WORD_SIZE
        self.victim = (VictimCache(victim_lines, words_per_line)
                       if victim_lines else None)
        self.l2 = L2Cache(l2, words_per_line) if l2 is not None else None
        # One epoch counter per physical memory line; bumped on every
        # write to that line of memory outside a capture.  L1 fills are
        # stamped with it and only clean lines whose stamp is still
        # current may be captured (module docstring).
        self._epochs = np.zeros(memory.num_pages * self.lines_per_page,
                                dtype=np.int64)

    # ---- epoch bookkeeping -------------------------------------------------

    def epoch_of(self, tag: int) -> int:
        """Current epoch of memory line ``tag``."""
        return int(self._epochs[tag])

    def epochs_of(self, tags: np.ndarray) -> np.ndarray:
        return self._epochs[tags]

    # ---- the L1-facing surface ---------------------------------------------

    def fetch_line(self, tag: int) -> np.ndarray:
        """Serve an L1 line fill, charging for whichever level supplied it."""
        if self.victim is not None:
            line = self.victim.take(tag)
            if line is not None:
                self.counters.victim_hits += 1
                self.clock.advance(self.cost.victim_hit)
                return line
        if self.l2 is not None:
            line = self.l2.lookup(tag)
            if line is not None:
                self.counters.l2_hits += 1
                self.clock.advance(self.cost.l2_hit)
                return line
        line = self.memory.read_line(tag * self.line_size,
                                     self.line_size // WORD_SIZE)
        if self.l2 is not None:
            self.l2.insert(tag, line)
            self.counters.l2_fills += 1
        self.clock.advance(self.cost.line_fill)
        return line

    def capture(self, tag: int, data: np.ndarray) -> None:
        """Cache an evicted (already written-back, hence clean) L1 line."""
        if self.victim is not None:
            self.victim.capture(tag, data)
            self.counters.victim_captures += 1
        elif self.l2 is not None:
            self.l2.insert(tag, data)

    def note_memory_write(self, tag: int) -> None:
        """Memory line ``tag`` was just written (write-back, wt store):
        any lower-level copy is now stale; drop it and bump the epoch."""
        self._epochs[tag] += 1
        if self.victim is not None:
            self.victim.invalidate(tag)
        if self.l2 is not None:
            self.l2.invalidate(tag)

    def note_memory_write_range(self, first_tag: int, last_tag: int) -> None:
        self._epochs[first_tag:last_tag + 1] += 1
        if self.victim is not None:
            self.victim.invalidate_range(first_tag, last_tag)
        if self.l2 is not None:
            self.l2.invalidate_range(first_tag, last_tag)

    # ---- memory-written-behind-the-caches notifications --------------------

    def invalidate_page(self, ppage: int) -> None:
        """Memory frame ``ppage`` was written directly (DMA / pageout)."""
        first = ppage * self.lines_per_page
        self.note_memory_write_range(first, first + self.lines_per_page - 1)

    def invalidate_span(self, paddr: int, n_words: int) -> None:
        """A span of memory was written directly (uncached stores)."""
        first = paddr // self.line_size
        last = (paddr + max(n_words, 1) * WORD_SIZE - 1) // self.line_size
        self.note_memory_write_range(first, last)
