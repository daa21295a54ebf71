"""A virtually indexed, physically tagged cache simulator.

This models the HP PA-RISC style cache assumed throughout the paper:

* the *virtual* address selects the set (cache line), so the same physical
  datum can live in several lines at once when accessed through unaligned
  aliases — the paper's central consistency hazard;
* the tag stores the *physical* line number, so aligned aliases hit the
  same line and are resolved without going to memory (Section 2.2);
* the data cache is write-back: a dirty line reaches memory only on a
  victim replacement or an explicit ``flush`` (Section 2.2);
* the two software-visible management operations are ``flush`` (write back
  if dirty, then invalidate) and ``purge`` (invalidate without write-back)
  (Section 1.1).

The simulator moves real word values, so every hazard the paper describes
(stale reads through one alias after writes through another, lost
write-backs from doubly-dirty lines, cached data shadowing fresh DMA data)
is observable as a wrong value, not merely as a flag.

Variants used by Section 3.3 are supported: physical indexing, write-
through stores, and set associativity (hardware keeps a physical line
unique within a set).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AddressError, ConfigurationError
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason

_INVALID = -1

# Runs shorter than this go line by line with scalar tag checks: the fixed
# cost of the vectorized run path only pays for itself on longer runs.
RUN_FALLBACK_WORDS = 8


class Cache:
    """One cache (data or instruction) with full content simulation.

    Word-level operations (:meth:`read`, :meth:`write`) model individual
    CPU accesses.  Page-level operations (:meth:`read_page`,
    :meth:`write_page`, :meth:`flush_page_frame`, :meth:`purge_page_frame`)
    are vectorized fast paths with identical semantics to the equivalent
    word/line loops; the kernel uses them for page preparation and cache
    management, exactly as Mach's machine-dependent layer loops FDC/PDC
    over a page.
    """

    def __init__(self, geometry: CacheGeometry, memory: PhysicalMemory,
                 cost: CostModel, clock: Clock, counters: Counters,
                 name: str = "dcache", is_icache: bool = False,
                 hierarchy=None):
        if geometry.page_size != memory.page_size:
            raise ConfigurationError("cache and memory disagree on page size")
        self.geo = geometry
        self.memory = memory
        self.cost = cost
        self.clock = clock
        self.counters = counters
        self.name = name
        self.is_icache = is_icache
        # The shared lower hierarchy (victim cache / L2), or None for the
        # seed machine's L1-over-memory arrangement.  With a hierarchy,
        # fills go through it (it charges the clock for whichever level
        # supplied the line) and evicted lines may be captured below; see
        # :mod:`repro.hw.hierarchy` for the clean-copy/epoch discipline.
        self.hierarchy = hierarchy
        # Observability: the machine attaches its EventBus here; standalone
        # caches (unit tests) run without one.  Only the management
        # operations publish — never the word/run/page access paths.
        self.bus = None
        # Exact-management mode (the reverse-lookup-table policy): a
        # hardware table names the resident lines of the target frame, so
        # flush/purge touch only those lines — the per-line miss-scan
        # term of the cost model disappears.  Contents are unaffected;
        # only the charged cycles change.
        self.exact_management = False

        ways, sets = geometry.associativity, geometry.num_sets
        self._tags = np.full((ways, sets), _INVALID, dtype=np.int64)
        self._dirty = np.zeros((ways, sets), dtype=bool)
        self._data = np.zeros((ways, sets, geometry.words_per_line),
                              dtype=np.uint64)
        self._lru = np.zeros((ways, sets), dtype=np.int64)
        self._tick = 0
        # Epoch stamp of each line's fill (hierarchy mode only): a clean
        # line may be captured below on eviction iff its stamp still
        # matches its memory line's epoch, i.e. memory has not been
        # rewritten since the fill.
        self._fill_epoch = (np.zeros((ways, sets), dtype=np.int64)
                            if hierarchy is not None else None)
        # pa_page_base -> read-only line-tag array (see _page_tags)
        self._page_tags_cache: dict[int, np.ndarray] = {}

    # ---- index helpers -----------------------------------------------------

    def _set_of(self, vaddr: int, paddr: int) -> int:
        addr = paddr if self.geo.physically_indexed else vaddr
        return self.geo.set_index(addr)

    def _check_word(self, vaddr: int, paddr: int) -> None:
        if vaddr % WORD_SIZE or paddr % WORD_SIZE:
            raise AddressError("cache word access must be word aligned")
        if vaddr % self.geo.page_size != paddr % self.geo.page_size:
            raise AddressError(
                "virtual and physical addresses must share the page offset")

    def _find_way(self, set_idx: int, tag: int) -> int | None:
        for way in range(self.geo.associativity):
            if self._tags[way, set_idx] == tag:
                return way
        return None

    def _victim_way(self, set_idx: int) -> int:
        """The way a miss in ``set_idx`` will replace.

        Deterministic by construction, in two stages:

        1. the *lowest-numbered invalid* way, if any (ways fill in index
           order from a purged cache);
        2. otherwise the way with the *smallest LRU stamp* — true LRU,
           since :meth:`_touch` assigns stamps from a strictly increasing
           tick, so stamps within a set are unique and ``argmin`` never
           needs a tie-break.

        Pinned by the eviction-order regression tests at 2 and 4 ways
        (``tests/hw/test_cache.py``).
        """
        tags = self._tags[:, set_idx]
        empties = np.flatnonzero(tags == _INVALID)
        if len(empties):
            return int(empties[0])
        return int(np.argmin(self._lru[:, set_idx]))

    def _touch(self, way: int, set_idx: int) -> None:
        self._tick += 1
        self._lru[way, set_idx] = self._tick

    def _write_back_line(self, way: int, set_idx: int) -> None:
        tag = int(self._tags[way, set_idx])
        self.memory.write_line(tag * self.geo.line_size,
                               self._data[way, set_idx])
        self.counters.write_backs += 1
        self.clock.advance(self.cost.write_back)
        if self.hierarchy is not None:
            # Memory just changed: stale lower copies must go.  This line
            # now equals memory again, so re-stamp it capture-current.
            self.hierarchy.note_memory_write(tag)
            self._fill_epoch[way, set_idx] = self.hierarchy.epoch_of(tag)

    def _evict(self, way: int, set_idx: int) -> None:
        dirty = bool(self._dirty[way, set_idx])
        if dirty:
            self._write_back_line(way, set_idx)
        if self.hierarchy is not None:
            tag = int(self._tags[way, set_idx])
            # Capture the victim below iff its data equals memory: always
            # true after a dirty write-back (which re-stamps), and for a
            # clean line iff memory has not moved since its fill.
            if tag != _INVALID and self._fill_epoch[way, set_idx] \
                    == self.hierarchy.epoch_of(tag):
                self.hierarchy.capture(tag, self._data[way, set_idx])
        self._tags[way, set_idx] = _INVALID
        self._dirty[way, set_idx] = False

    def _fill(self, way: int, set_idx: int, tag: int) -> None:
        self._tags[way, set_idx] = tag
        if self.hierarchy is None:
            self._data[way, set_idx] = self.memory.read_line(
                tag * self.geo.line_size, self.geo.words_per_line)
            self.clock.advance(self.cost.line_fill)
        else:
            # The hierarchy charges the clock itself (victim/L2/memory
            # fills cost differently) and the fill is epoch-stamped.
            self._data[way, set_idx] = self.hierarchy.fetch_line(tag)
            self._fill_epoch[way, set_idx] = self.hierarchy.epoch_of(tag)
        self._dirty[way, set_idx] = False

    # ---- word access -------------------------------------------------------

    def read(self, vaddr: int, paddr: int) -> int:
        """CPU load of the word at (vaddr -> paddr); returns its value."""
        geo = self.geo
        if geo.associativity == 1:
            # Direct-mapped fast path: no way search, and ndarray.item()
            # avoids boxing the tag/value into numpy scalars.
            if vaddr % WORD_SIZE or paddr % WORD_SIZE:
                raise AddressError("cache word access must be word aligned")
            if vaddr % geo.page_size != paddr % geo.page_size:
                raise AddressError(
                    "virtual and physical addresses must share the page offset")
            addr = paddr if geo.physically_indexed else vaddr
            set_idx = (addr // geo.line_size) % geo.num_sets
            tag = paddr // geo.line_size
            if self._tags.item(0, set_idx) == tag:
                self.counters.read_hits += 1
                self.clock.cycles += self.cost.cache_hit
            else:
                self.counters.read_misses += 1
                self._evict(0, set_idx)
                self._fill(0, set_idx, tag)
            self._tick += 1
            self._lru[0, set_idx] = self._tick
            return self._data.item(0, set_idx,
                                   (paddr % geo.line_size) // WORD_SIZE)
        self._check_word(vaddr, paddr)
        set_idx = self._set_of(vaddr, paddr)
        tag = paddr // geo.line_size
        way = self._find_way(set_idx, tag)
        if way is None:
            self.counters.read_misses += 1
            way = self._victim_way(set_idx)
            self._evict(way, set_idx)
            self._fill(way, set_idx, tag)
        else:
            self.counters.read_hits += 1
            self.clock.advance(self.cost.cache_hit)
        self._touch(way, set_idx)
        word = (paddr % geo.line_size) // WORD_SIZE
        return int(self._data[way, set_idx, word])

    def write(self, vaddr: int, paddr: int, value: int) -> None:
        """CPU store of the word at (vaddr -> paddr).

        Write-back mode allocates on miss and marks the line dirty;
        write-through mode propagates the store to memory immediately and
        never dirties a line (the Section 3.3 write-through variant).
        """
        geo = self.geo
        if geo.associativity == 1:
            if vaddr % WORD_SIZE or paddr % WORD_SIZE:
                raise AddressError("cache word access must be word aligned")
            if vaddr % geo.page_size != paddr % geo.page_size:
                raise AddressError(
                    "virtual and physical addresses must share the page offset")
            addr = paddr if geo.physically_indexed else vaddr
            set_idx = (addr // geo.line_size) % geo.num_sets
            tag = paddr // geo.line_size
            if self._tags.item(0, set_idx) == tag:
                self.counters.write_hits += 1
                self.clock.cycles += self.cost.cache_hit
            else:
                self.counters.write_misses += 1
                self._evict(0, set_idx)
                self._fill(0, set_idx, tag)
            self._tick += 1
            self._lru[0, set_idx] = self._tick
            self._data[0, set_idx, (paddr % geo.line_size) // WORD_SIZE] = value
            if geo.write_through:
                self.memory.write_word(paddr, value)
                self.clock.cycles += self.cost.write_back
                if self.hierarchy is not None:
                    self.hierarchy.note_memory_write(tag)
                    self._fill_epoch[0, set_idx] = \
                        self.hierarchy.epoch_of(tag)
            else:
                self._dirty[0, set_idx] = True
            return
        self._check_word(vaddr, paddr)
        set_idx = self._set_of(vaddr, paddr)
        tag = paddr // geo.line_size
        way = self._find_way(set_idx, tag)
        if way is None:
            self.counters.write_misses += 1
            way = self._victim_way(set_idx)
            self._evict(way, set_idx)
            self._fill(way, set_idx, tag)
        else:
            self.counters.write_hits += 1
            self.clock.advance(self.cost.cache_hit)
        self._touch(way, set_idx)
        word = (paddr % geo.line_size) // WORD_SIZE
        self._data[way, set_idx, word] = np.uint64(value)
        if geo.write_through:
            self.memory.write_word(paddr, value)
            self.clock.advance(self.cost.write_back)
            if self.hierarchy is not None:
                self.hierarchy.note_memory_write(tag)
                self._fill_epoch[way, set_idx] = self.hierarchy.epoch_of(tag)
        else:
            self._dirty[way, set_idx] = True

    # ---- contiguous word runs (the batched access engine) --------------------

    def _run_shape(self, vaddr: int, paddr: int, n_words: int):
        """Validate a run and derive its line-level shape.

        Returns ``(sets, want, counts, first_word, n_lines)``: the set
        slice the run covers, the physical line tags it wants, the number
        of run words falling in each line, the word offset of the run's
        first word within its first line, and the line count.
        """
        geo = self.geo
        if vaddr % WORD_SIZE or paddr % WORD_SIZE:
            raise AddressError("cache word access must be word aligned")
        if vaddr % geo.page_size != paddr % geo.page_size:
            raise AddressError(
                "virtual and physical addresses must share the page offset")
        last_off = (n_words - 1) * WORD_SIZE
        if vaddr // geo.page_size != (vaddr + last_off) // geo.page_size:
            raise AddressError("a cache run must stay within one page")
        first_tag = paddr // geo.line_size
        n_lines = (paddr + last_off) // geo.line_size - first_tag + 1
        addr = paddr if geo.physically_indexed else vaddr
        s0 = (addr // geo.line_size) % geo.num_sets
        want = np.arange(first_tag, first_tag + n_lines, dtype=np.int64)
        first_word = (paddr % geo.line_size) // WORD_SIZE
        wpl = geo.words_per_line
        if n_lines == 1:
            counts = np.array([n_words], dtype=np.int64)
        else:
            counts = np.full(n_lines, wpl, dtype=np.int64)
            counts[0] = wpl - first_word
            counts[-1] = n_words - (wpl - first_word) - (n_lines - 2) * wpl
        return slice(s0, s0 + n_lines), want, counts, first_word, n_lines

    def read_run(self, vaddr: int, paddr: int, n_words: int) -> np.ndarray:
        """Read ``n_words`` consecutive words starting at (vaddr -> paddr).

        Observationally equivalent to the word loop
        ``[self.read(vaddr + 4*i, paddr + 4*i) for i in range(n_words)]``:
        identical counters, clock cycles, tag/dirty/data/LRU state, and
        returned values.  The run must stay within one page (within a page
        a victim can never belong to the run's own physical page — a
        matching tag at the page-offset set would be a hit — so victim
        write-backs and line fills touch disjoint memory and commute with
        the word loop's interleaved order).

        Runs shorter than :data:`RUN_FALLBACK_WORDS` on a direct-mapped
        cache go line by line (:meth:`_read_lines`): one scalar tag check
        per line (at most two lines with 32-byte lines).  Associative
        caches take the word loop, through the class's :meth:`read` so
        that an observer wrapping this instance's entry points sees the
        run once, not once more per word.
        """
        if self.geo.associativity > 1:
            read = Cache.read
            out = np.empty(n_words, dtype=np.uint64)
            for i in range(n_words):
                off = i * WORD_SIZE
                out[i] = read(self, vaddr + off, paddr + off)
            return out
        if n_words < RUN_FALLBACK_WORDS:
            return self._read_lines(vaddr, paddr, n_words)
        sets, want, counts, first_word, n_lines = self._run_shape(
            vaddr, paddr, n_words)
        tags = self._tags[0, sets]
        misses = tags != want
        n_miss = int(misses.sum())
        if self.hierarchy is not None:
            # Per-line servicing in set order (= the word loop's order):
            # fills may come from the victim cache or L2 at differing
            # cost, and evictions may capture below, so the batched
            # evict-all-then-fill-all shape would not be equivalent.
            self._service_lines(sets, want, misses)
            self.clock.advance((n_words - n_miss) * self.cost.cache_hit)
        else:
            victims = misses & (tags != _INVALID) & self._dirty[0, sets]
            self._write_back_victims(sets, victims)
            if n_miss:
                mem_lines = self.memory.read_line(
                    int(want[0]) * self.geo.line_size,
                    n_lines * self.geo.words_per_line,
                ).reshape(n_lines, self.geo.words_per_line)
                self._data[0, sets][misses] = mem_lines[misses]
                self._tags[0, sets] = want
                self._dirty[0, sets][misses] = False
            self.clock.advance((n_words - n_miss) * self.cost.cache_hit
                               + n_miss * self.cost.line_fill)
        self.counters.read_hits += n_words - n_miss
        self.counters.read_misses += n_miss
        self._lru[0, sets] = self._tick + np.cumsum(counts)
        self._tick += n_words
        return self._data[0, sets].reshape(-1)[
            first_word:first_word + n_words].copy()

    def write_run(self, vaddr: int, paddr: int, values: np.ndarray) -> None:
        """Store ``values`` to consecutive words starting at (vaddr -> paddr).

        Word-loop equivalent (see :meth:`read_run`, also for the short
        and associative paths); like the word loop it fills every missing
        line before storing into it, so partially overwritten lines keep
        their memory contents.
        """
        n_words = len(values)
        if self.geo.associativity > 1:
            write = Cache.write
            for i in range(n_words):
                off = i * WORD_SIZE
                write(self, vaddr + off, paddr + off, int(values[i]))
            return
        if n_words < RUN_FALLBACK_WORDS:
            self._write_lines(vaddr, paddr, values)
            return
        sets, want, counts, first_word, n_lines = self._run_shape(
            vaddr, paddr, n_words)
        values = np.asarray(values, dtype=np.uint64)
        tags = self._tags[0, sets]
        misses = tags != want
        n_miss = int(misses.sum())
        if self.hierarchy is not None:
            self._service_lines(sets, want, misses)
            cycles = (n_words - n_miss) * self.cost.cache_hit
        else:
            victims = misses & (tags != _INVALID) & self._dirty[0, sets]
            self._write_back_victims(sets, victims)
            if n_miss:
                mem_lines = self.memory.read_line(
                    int(want[0]) * self.geo.line_size,
                    n_lines * self.geo.words_per_line,
                ).reshape(n_lines, self.geo.words_per_line)
                self._data[0, sets][misses] = mem_lines[misses]
                self._tags[0, sets] = want
                self._dirty[0, sets][misses] = False
            cycles = ((n_words - n_miss) * self.cost.cache_hit
                      + n_miss * self.cost.line_fill)
        self._data[0, sets].reshape(-1)[
            first_word:first_word + n_words] = values
        self.counters.write_hits += n_words - n_miss
        self.counters.write_misses += n_miss
        if self.geo.write_through:
            self.memory.write_words(paddr, values)
            cycles += n_words * self.cost.write_back
            if self.hierarchy is not None:
                # Every run line was filled whole before the store, so
                # after the memory write each equals memory: re-stamp.
                self.hierarchy.note_memory_write_range(int(want[0]),
                                                       int(want[-1]))
                self._fill_epoch[0, sets] = self.hierarchy.epochs_of(want)
        else:
            self._dirty[0, sets] = True
        self.clock.advance(cycles)
        self._lru[0, sets] = self._tick + np.cumsum(counts)
        self._tick += n_words

    def _line_start(self, vaddr: int, paddr: int) -> tuple[int, int, int]:
        """Validate a short direct-mapped run's first word; return its
        ``(set index, physical tag, word offset within the line)``."""
        geo = self.geo
        if vaddr % WORD_SIZE or paddr % WORD_SIZE:
            raise AddressError("cache word access must be word aligned")
        if vaddr % geo.page_size != paddr % geo.page_size:
            raise AddressError(
                "virtual and physical addresses must share the page offset")
        addr = paddr if geo.physically_indexed else vaddr
        return ((addr // geo.line_size) % geo.num_sets,
                paddr // geo.line_size,
                (paddr % geo.line_size) // WORD_SIZE)

    def _read_lines(self, vaddr: int, paddr: int,
                    n_words: int) -> np.ndarray:
        """A short direct-mapped :meth:`read_run`, one line at a time.

        Each line does what the word loop does for its ``k`` words: a
        miss on the first word (evict, fill) or a hit, ``k - 1`` hits
        after it, and an LRU stamp that ends ``k`` ticks later.
        """
        set_idx, tag, word = self._line_start(vaddr, paddr)
        wpl, num_sets = self.geo.words_per_line, self.geo.num_sets
        counters, hit_cost = self.counters, self.cost.cache_hit
        out = np.empty(n_words, dtype=np.uint64)
        done = 0
        while done < n_words:
            k = min(wpl - word, n_words - done)
            if self._tags.item(0, set_idx) == tag:
                counters.read_hits += k
                self.clock.cycles += k * hit_cost
            else:
                counters.read_misses += 1
                counters.read_hits += k - 1
                self._evict(0, set_idx)
                self._fill(0, set_idx, tag)
                self.clock.cycles += (k - 1) * hit_cost
            self._tick += k
            self._lru[0, set_idx] = self._tick
            out[done:done + k] = self._data[0, set_idx, word:word + k]
            done += k
            set_idx, tag, word = (set_idx + 1) % num_sets, tag + 1, 0
        return out

    def _write_lines(self, vaddr: int, paddr: int, values) -> None:
        """A short direct-mapped :meth:`write_run`, one line at a time
        (see :meth:`_read_lines`).  A write-through line reaches memory
        in one store and, with a hierarchy, bumps its epoch once, as in
        the vectorized path."""
        set_idx, tag, word = self._line_start(vaddr, paddr)
        wpl, num_sets = self.geo.words_per_line, self.geo.num_sets
        counters, cost = self.counters, self.cost
        values = np.asarray(values, dtype=np.uint64)
        n_words = len(values)
        done = 0
        while done < n_words:
            k = min(wpl - word, n_words - done)
            if self._tags.item(0, set_idx) == tag:
                counters.write_hits += k
                self.clock.cycles += k * cost.cache_hit
            else:
                counters.write_misses += 1
                counters.write_hits += k - 1
                self._evict(0, set_idx)
                self._fill(0, set_idx, tag)
                self.clock.cycles += (k - 1) * cost.cache_hit
            self._tick += k
            self._lru[0, set_idx] = self._tick
            chunk = values[done:done + k]
            self._data[0, set_idx, word:word + k] = chunk
            if self.geo.write_through:
                self.memory.write_words(paddr + done * WORD_SIZE, chunk)
                self.clock.cycles += k * cost.write_back
                if self.hierarchy is not None:
                    self.hierarchy.note_memory_write(tag)
                    self._fill_epoch[0, set_idx] = \
                        self.hierarchy.epoch_of(tag)
            else:
                self._dirty[0, set_idx] = True
            done += k
            set_idx, tag, word = (set_idx + 1) % num_sets, tag + 1, 0

    # ---- page-granularity helpers -------------------------------------------

    def _page_sets(self, cache_page: int) -> slice:
        if not 0 <= cache_page < self.geo.num_cache_pages:
            raise AddressError(f"cache page {cache_page} out of range")
        lpp = self.geo.lines_per_page
        return slice(cache_page * lpp, (cache_page + 1) * lpp)

    def _page_tags(self, pa_page_base: int) -> np.ndarray:
        """Tags of the lines of physical page based at ``pa_page_base``, in
        page-offset order — which is also set order within a cache page,
        because index bits below the page size come from the page offset.

        The arrays are memoized per page base (and returned read-only):
        every flush/purge/page-op of the same frame reuses one allocation.
        """
        tags = self._page_tags_cache.get(pa_page_base)
        if tags is None:
            if pa_page_base % self.geo.page_size:
                raise AddressError("physical page base must be page aligned")
            first = pa_page_base // self.geo.line_size
            tags = np.arange(first, first + self.geo.lines_per_page,
                             dtype=np.int64)
            tags.flags.writeable = False
            self._page_tags_cache[pa_page_base] = tags
        return tags

    def cache_page_of(self, vaddr: int, paddr: int | None = None) -> int:
        """Cache page an address maps to under this cache's indexing mode."""
        if self.geo.physically_indexed:
            if paddr is None:
                raise AddressError("physically indexed cache needs the paddr")
            return self.geo.cache_page(paddr)
        return self.geo.cache_page(vaddr)

    # ---- flush / purge (the two operations the 720 exports, Section 1.1) ---

    def flush_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        """Flush every line of physical page ``pa_page_base`` resident in
        cache page ``cache_page``: write back the dirty ones, invalidate all
        matches.  Returns the number of resident lines found.

        Cost model: resident lines cost :attr:`CostModel.flush_line_hit`,
        absent ones :attr:`CostModel.flush_line_miss` — the paper's
        "up to seven times slower when the data is in the cache".
        """
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        match = self._tags[:, sets] == want            # (ways, lines_per_page)
        hits = int(match.sum())
        dirty_match = match & self._dirty[:, sets]
        n_dirty = int(dirty_match.sum())
        if n_dirty:
            # A physical line is unique within a set, so at most one way
            # matches per line index: the scatter targets are distinct and
            # the vectorized write-back is order-independent.
            ways, lines = np.nonzero(dirty_match)
            self.memory.write_lines(want[lines], self._data[:, sets][ways, lines],
                                    self.geo.words_per_line)
            self.counters.write_backs += n_dirty
            if self.hierarchy is not None:
                for tag in want[lines]:
                    self.hierarchy.note_memory_write(int(tag))
        self._tags[:, sets][match] = _INVALID
        self._dirty[:, sets][match] = False
        if self.exact_management:
            cycles = (hits * self.cost.flush_line_hit
                      + n_dirty * self.cost.write_back)
        else:
            lpp = self.geo.lines_per_page
            cycles = (hits * self.cost.flush_line_hit
                      + (lpp - hits) * self.cost.flush_line_miss
                      + n_dirty * self.cost.write_back)
        self.clock.advance(cycles)
        self.counters.record_flush(self.name, reason, cycles)
        if self.bus is not None and self.bus.enabled:
            self.bus.publish("flush", cache=self.name, cache_page=cache_page,
                             frame=pa_page_base // self.geo.page_size,
                             reason=str(reason), resident=hits,
                             cost_cycles=cycles)
        return hits

    def purge_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        """Invalidate, without write-back, every line of the physical page
        resident in ``cache_page``.  Returns the number of lines discarded.

        The 720's instruction cache purges in constant time regardless of
        contents (Section 5.1); that quirk is modeled here.
        """
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        match = self._tags[:, sets] == want
        hits = int(match.sum())
        self._tags[:, sets][match] = _INVALID
        self._dirty[:, sets][match] = False
        if self.is_icache:
            cycles = self.cost.icache_purge_page
        elif self.exact_management:
            cycles = hits * self.cost.purge_line_hit
        else:
            lpp = self.geo.lines_per_page
            cycles = (hits * self.cost.purge_line_hit
                      + (lpp - hits) * self.cost.purge_line_miss)
        self.clock.advance(cycles)
        self.counters.record_purge(self.name, reason, cycles)
        if self.bus is not None and self.bus.enabled:
            self.bus.publish("purge", cache=self.name, cache_page=cache_page,
                             frame=pa_page_base // self.geo.page_size,
                             reason=str(reason), resident=hits,
                             cost_cycles=cycles)
        return hits

    # ---- vectorized whole-page data movement --------------------------------

    def read_page(self, va_page_base: int, pa_page_base: int) -> np.ndarray:
        """Read one whole page through the cache (equivalent to a word loop).

        Missing lines are filled (evicting victims); the returned array is
        the page's current contents as the CPU would observe them.
        """
        self._check_page_pair(va_page_base, pa_page_base)
        if self.geo.associativity > 1:
            return self._read_page_slow(va_page_base, pa_page_base)
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
            victims = misses & (tags != _INVALID) & self._dirty[0, sets]
            self._write_back_victims(sets, victims)
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

    def write_page(self, va_page_base: int, pa_page_base: int,
                   values: np.ndarray) -> None:
        """Overwrite one whole page through the cache (word-loop equivalent).

        Because every line is written in full, no fill is needed
        (write-allocate without fetch); dirty victims are written back
        first.  In write-through mode the values also reach memory and no
        line is left dirty.
        """
        self._check_page_pair(va_page_base, pa_page_base)
        if len(values) != self.geo.words_per_page:
            raise AddressError("write_page requires exactly one page of words")
        if self.geo.associativity > 1:
            self._write_page_slow(va_page_base, pa_page_base, values)
            return
        cp = self.cache_page_of(va_page_base, pa_page_base)
        sets = self._page_sets(cp)
        want = self._page_tags(pa_page_base)
        tags = self._tags[0, sets]
        if self.hierarchy is not None:
            # Evict (and possibly capture below) every non-matching valid
            # line; matching lines are overwritten in place, needing no
            # fill because the whole line is replaced.
            stale = (tags != want) & (tags != _INVALID)
            for i in np.flatnonzero(stale):
                self._evict(0, sets.start + int(i))
        else:
            victims = (tags != want) & (tags != _INVALID) & self._dirty[0, sets]
            self._write_back_victims(sets, victims)
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

    def zero_page(self, va_page_base: int, pa_page_base: int) -> None:
        """Zero-fill one page through the cache (Section 4.1 page prep)."""
        self.write_page(va_page_base, pa_page_base,
                        np.zeros(self.geo.words_per_page, dtype=np.uint64))

    def _service_lines(self, sets: slice, want: np.ndarray,
                       misses: np.ndarray) -> None:
        """Evict and fill the missing lines of a run/page one at a time,
        in set order — the order the word loop would service them.

        Used only in hierarchy mode: fills are charged per source level
        (victim hit / L2 hit / memory) inside :meth:`_fill`, and an
        eviction at one set may capture a line that a later set's fill
        then takes from the victim cache, so the seed's batched
        evict-all-then-fill-all shape would not be equivalent here.
        """
        s0 = sets.start
        for i in np.flatnonzero(misses):
            s = s0 + int(i)
            self._evict(0, s)
            self._fill(0, s, int(want[i]))

    def _write_back_victims(self, sets: slice, victims: np.ndarray) -> None:
        n = int(victims.sum())
        if not n:
            return
        idxs = np.flatnonzero(victims)
        tags = self._tags[0, sets][idxs]
        if n == 1 or len(np.unique(tags)) == n:
            self.memory.write_lines(tags, self._data[0, sets][idxs],
                                    self.geo.words_per_line)
        else:
            # Two sets hold dirty copies of the same physical line (the
            # doubly-dirty alias hazard): preserve the word loop's
            # last-writer-wins order, which a vectorized scatter with
            # duplicate indices would not guarantee.
            for line in idxs:
                tag = int(self._tags[0, sets][line])
                self.memory.write_line(tag * self.geo.line_size,
                                       self._data[0, sets][line])
        self.counters.write_backs += n
        self.clock.advance(n * self.cost.write_back)

    # ---- slow generic paths for associative caches ---------------------------

    # Like the associative run loops, these call the class's read/write:
    # an observer wrapping the instance sees one page operation.

    def _read_page_slow(self, va_base: int, pa_base: int) -> np.ndarray:
        read = Cache.read
        out = np.empty(self.geo.words_per_page, dtype=np.uint64)
        for i in range(self.geo.words_per_page):
            off = i * WORD_SIZE
            out[i] = read(self, va_base + off, pa_base + off)
        return out

    def _write_page_slow(self, va_base: int, pa_base: int,
                         values: np.ndarray) -> None:
        write = Cache.write
        for i in range(self.geo.words_per_page):
            off = i * WORD_SIZE
            write(self, va_base + off, pa_base + off, int(values[i]))

    def _check_page_pair(self, va_base: int, pa_base: int) -> None:
        if va_base % self.geo.page_size or pa_base % self.geo.page_size:
            raise AddressError("page operations require page-aligned addresses")

    # ---- coherence snooping (the Section 3.3 multiprocessor extension) -------

    def snoop(self, set_idx: int, tag: int, invalidate: bool,
              write_back: bool = True) -> str | None:
        """A coherence probe from another cache in a coherent cluster.

        Looks for the physical line ``tag`` in set ``set_idx`` (the
        "equivalent cache line", Section 3.3).  If found: a dirty copy is
        written back to memory; with ``invalidate`` the copy is dropped
        (another processor is about to write), otherwise it is left clean
        (another processor is about to read).

        ``write_back=False`` suppresses the dirty write-back — no real
        protocol does this; it exists so the fault injector can model a
        lost coherence write-back (``smp.snoop.writeback.lost``).

        Returns None (not resident), "clean" or "dirty" for what was found.
        """
        way = self._find_way(set_idx, tag)
        if way is None:
            return None
        found = "dirty" if self._dirty[way, set_idx] else "clean"
        if self._dirty[way, set_idx]:
            if write_back:
                self._write_back_line(way, set_idx)
            elif self._fill_epoch is not None:
                # Injected lost write-back: the line is about to be marked
                # clean while disagreeing with memory.  Make sure it can
                # never be captured into the lower hierarchy.
                self._fill_epoch[way, set_idx] = -1
            self._dirty[way, set_idx] = False
        if invalidate:
            self._tags[way, set_idx] = _INVALID
        return found

    def probe_run(self, vaddr: int, paddr: int, n_words: int) -> tuple[int, int]:
        """Count (resident, dirty) equivalent lines of a run, mutating
        nothing — the cluster asks this before deciding whether a snoop
        (or an injected snoop race) is even relevant."""
        geo = self.geo
        if geo.associativity > 1:
            found = dirty = 0
            first_tag = paddr // geo.line_size
            last_off = (n_words - 1) * WORD_SIZE
            n_lines = (paddr + last_off) // geo.line_size - first_tag + 1
            base = vaddr - (vaddr % geo.line_size)
            for i in range(n_lines):
                set_idx = self._set_of(base + i * geo.line_size,
                                       (first_tag + i) * geo.line_size)
                way = self._find_way(set_idx, first_tag + i)
                if way is not None:
                    found += 1
                    if self._dirty[way, set_idx]:
                        dirty += 1
            return found, dirty
        sets, want, _counts, _first, _n = self._run_shape(vaddr, paddr, n_words)
        hit = self._tags[0, sets] == want
        return int(hit.sum()), int((hit & self._dirty[0, sets]).sum())

    def snoop_run(self, vaddr: int, paddr: int, n_words: int,
                  invalidate: bool, write_back: bool = True) -> tuple[int, int]:
        """Vectorized coherence probe for a whole run (or page) at once.

        Semantically identical to calling :meth:`snoop` per line of the
        run; returns ``(resident, dirty)`` line counts so the cluster can
        account coherence traffic.  Snoop probes themselves are free on
        the shared clock (the bus runs them in parallel with the access);
        only dirty write-backs cost cycles, exactly as a victim
        write-back does.
        """
        geo = self.geo
        if geo.associativity > 1 or self.hierarchy is not None:
            found = dirty = 0
            first_tag = paddr // geo.line_size
            last_off = (n_words - 1) * WORD_SIZE
            n_lines = (paddr + last_off) // geo.line_size - first_tag + 1
            base = vaddr - (vaddr % geo.line_size)
            for i in range(n_lines):
                set_idx = self._set_of(base + i * geo.line_size,
                                       (first_tag + i) * geo.line_size)
                got = self.snoop(set_idx, first_tag + i, invalidate,
                                 write_back=write_back)
                if got is not None:
                    found += 1
                    if got == "dirty":
                        dirty += 1
            return found, dirty
        sets, want, _counts, _first, _n = self._run_shape(vaddr, paddr, n_words)
        tags = self._tags[0, sets]
        hit = tags == want
        n_found = int(hit.sum())
        if not n_found:
            return 0, 0
        dirty_view = self._dirty[0, sets]
        dirty_mask = hit & dirty_view
        n_dirty = int(dirty_mask.sum())
        if n_dirty:
            if write_back:
                idxs = np.flatnonzero(dirty_mask)
                # want is a strictly increasing arange, so no duplicate
                # tags: the vectorized scatter is order-safe here.
                self.memory.write_lines(want[idxs], self._data[0, sets][idxs],
                                        geo.words_per_line)
                self.counters.write_backs += n_dirty
                self.clock.advance(n_dirty * self.cost.write_back)
            dirty_view[dirty_mask] = False
        if invalidate:
            self._tags[0, sets][hit] = _INVALID
        return n_found, n_dirty

    # ---- inspection (tests, invariant checks) --------------------------------

    def resident_lines(self, cache_page: int, pa_page_base: int) -> int:
        """How many lines of the physical page are resident in ``cache_page``."""
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        return int((self._tags[:, sets] == want).sum())

    def dirty_lines(self, cache_page: int, pa_page_base: int) -> int:
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        return int(((self._tags[:, sets] == want)
                    & self._dirty[:, sets]).sum())

    def dirty_cache_pages(self, pa_page_base: int) -> list[int]:
        """Cache pages currently holding dirty lines of the physical page."""
        return [cp for cp in range(self.geo.num_cache_pages)
                if self.dirty_lines(cp, pa_page_base)]

    def line_value(self, cache_page: int, pa_page_base: int,
                   line: int) -> np.ndarray | None:
        """The cached contents of one line, or None if not resident."""
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        for way in range(self.geo.associativity):
            if self._tags[way, sets][line] == want[line]:
                return self._data[way, sets][line].copy()
        return None

    def invalidate_all(self) -> None:
        """Power-up purge of the whole cache (Section 3.2: initially all
        lines are Empty; 'the cache can be purged to ensure this')."""
        self._tags[:] = _INVALID
        self._dirty[:] = False
