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


def _check_run_length(n_words: int) -> None:
    """The run rule for a length below one: zero words are a run that
    changes nothing (the caller returns at once), a negative length an
    :class:`AddressError` raised before any change."""
    if n_words < 0:
        raise AddressError(f"run length must be non-negative, got {n_words}")


# ---- page kernels -------------------------------------------------------------
#
# The array work of the page operations on a direct-mapped cache with no
# hierarchy below it, shared by :class:`Cache` and the trace interpreter.
# Each works on way-0 views — 1-D ``tags`` and ``dirty``, 2-D ``data``
# (set, word) — and on ``mem_lines``, physical memory viewed as whole
# lines, over the set slice ``sets`` of one page (or run) whose wanted
# line tags, in set order, are ``want``.  They move data and return
# counts; the callers charge the clock and tally the counters.


def write_back_victims(tv, dyv, datv, mem_lines, misses) -> int:
    """Write back the valid dirty lines of one cache page's set slice
    (views ``tv``, ``dyv``, ``datv``) selected by ``misses``; return how
    many.  Their dirty bits are left to the caller.

    The victims' tags are distinct, so one vectorized scatter is
    order-safe: a line fills only the set its page offset selects
    (``tag % lines_per_page == set % lines_per_page``, under virtual and
    physical indexing alike), so within one cache page each physical
    line has exactly one possible set.  Doubly-dirty aliases of a line
    sit in different cache pages and are written back by different
    operations, in program order.
    """
    victims = misses & (tv != _INVALID) & dyv
    n = int(np.count_nonzero(victims))
    if n:
        mem_lines[tv[victims]] = datv[victims]
    return n


def fill_lines(tags, dirty, data, mem_lines, sets: slice,
               want: np.ndarray) -> tuple[int, int]:
    """Make the lines ``want`` resident, clean where they were missing:
    write back the dirty victims, then fill the missing lines from
    memory.  Returns (lines filled, victims written back).

    An all-hit slice touches no array, victims are looked for only when
    some set of the slice is dirty, and a slice that misses on every
    line fills with one contiguous copy (``want`` is a line range).
    """
    tv = tags[sets]
    misses = tv != want
    n_miss = int(np.count_nonzero(misses))
    if not n_miss:
        return 0, 0
    n_wb = 0
    dyv = dirty[sets]
    if dyv.any():
        n_wb = write_back_victims(tv, dyv, data[sets], mem_lines, misses)
        dyv[misses] = False
    if n_miss == len(want):
        w0 = want.item(0)
        data[sets] = mem_lines[w0:w0 + n_miss]
    else:
        data[sets][misses] = mem_lines[want[misses]]
    tv[:] = want
    return n_miss, n_wb


def store_lines(tags, dirty, data, mem_lines, sets: slice, want: np.ndarray,
                lines: np.ndarray) -> int:
    """Overwrite the whole lines ``want`` with ``lines`` (one row per
    line) and mark them dirty: no fill, since every word is replaced.
    Dirty victims are written back first, looked for only when some set
    of the slice is dirty.  Returns the victims written back."""
    tv = tags[sets]
    dyv = dirty[sets]
    n_wb = 0
    if dyv.any():
        n_wb = write_back_victims(tv, dyv, data[sets], mem_lines, tv != want)
    tv[:] = want
    data[sets] = lines
    dyv[:] = True
    return n_wb


def flush_lines(tags, dirty, data, mem_lines, sets: slice,
                want: np.ndarray) -> tuple[int, int]:
    """Flush the resident lines of ``want``: write back the dirty ones,
    invalidate all.  Returns (resident lines, lines written back).

    Shaped by how much of the page is resident: none touches no array;
    the whole page is exactly the line range ``want``, so its slices
    clear whole and an all-dirty page writes back as one contiguous
    copy; a few lines move one by one.
    """
    tv = tags[sets]
    match = tv == want
    hits = int(np.count_nonzero(match))
    if not hits:
        return 0, 0
    if hits == len(want):
        dyv = dirty[sets]
        n_dirty = int(np.count_nonzero(dyv))
        if n_dirty == hits:
            w0 = want.item(0)
            mem_lines[w0:w0 + hits] = data[sets]
        elif n_dirty:
            mem_lines[want[dyv]] = data[sets][dyv]
        if n_dirty:
            dyv[:] = False
        tv[:] = _INVALID
        return hits, n_dirty
    s0 = sets.start
    n_dirty = 0
    for i in np.flatnonzero(match).tolist():
        s = s0 + i
        if dirty.item(s):
            mem_lines[want.item(i)] = data[s]
            dirty[s] = False
            n_dirty += 1
        tags[s] = _INVALID
    return hits, n_dirty


def purge_lines(tags, dirty, sets: slice, want: np.ndarray) -> int:
    """Invalidate, without write-back, the resident lines of ``want``;
    return how many.  None resident touches no array; otherwise two
    masked stores, which cost about the same for one line as for a
    whole page (a scalar loop over the resident lines is several times
    slower on the 126-line purges in the paper's traces)."""
    tv = tags[sets]
    match = tv == want
    hits = int(np.count_nonzero(match))
    if hits:
        dirty[sets][match] = False
        tv[match] = _INVALID
    return hits


class Cache:
    """One cache (data or instruction) with full content simulation.

    Word-level operations (:meth:`read`, :meth:`write`) model individual
    CPU accesses; they, every one-line run and every associative run or
    page access go through one line step (:meth:`_claim_line`) for any
    number of ways.  Page-level operations (:meth:`read_page`,
    :meth:`write_page`, :meth:`flush_page_frame`, :meth:`purge_page_frame`)
    are vectorized fast paths on a direct-mapped cache, with the contents
    of the equivalent word/line loops (see :meth:`read_page` for their
    accounting); the kernel uses them for page preparation and cache
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
        # Memory as whole lines, for the page kernels.
        self._mem_lines = memory._words.reshape(-1, geometry.words_per_line)

    def __getstate__(self):
        # A copied view would no longer alias the copied memory's words.
        state = self.__dict__.copy()
        del state["_mem_lines"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._mem_lines = self.memory._words.reshape(
            -1, self.geo.words_per_line)

    # ---- index helpers -----------------------------------------------------

    def _decode(self, vaddr: int, paddr: int) -> tuple[int, int, int]:
        """Check the word access at (vaddr -> paddr) and decode it into
        ``(set index, physical line tag, word within the line)``: the one
        address check and decode of every word, run, probe and snoop.

        The set comes from the virtual address, or from the physical one
        on a physically indexed cache."""
        geo = self.geo
        # Low bits decide both checks, so each is one bitwise op.
        if (vaddr | paddr) % WORD_SIZE:
            raise AddressError("cache word access must be word aligned")
        if (vaddr ^ paddr) % geo.page_size:
            raise AddressError(
                "virtual and physical addresses must share the page offset")
        line_size = geo.line_size
        addr = paddr if geo.physically_indexed else vaddr
        return ((addr // line_size) % geo.num_sets, paddr // line_size,
                (paddr % line_size) // WORD_SIZE)

    def _check_line(self, tag: int) -> None:
        """Reject a miss on a line outside physical memory, before the
        miss is counted or a victim evicted (a hit needs no check: only
        lines of memory are ever resident)."""
        if not 0 <= tag < len(self._mem_lines):
            raise AddressError(f"physical address "
                               f"{tag * self.geo.line_size:#x} out of range")

    def _find_way(self, set_idx: int, tag: int) -> int | None:
        tags = self._tags
        for way in range(self.geo.associativity):
            if tags.item(way, set_idx) == tag:
                return way
        return None

    def _victim_way(self, set_idx: int) -> int:
        """The way a miss in ``set_idx`` of an associative cache will
        replace.

        Deterministic by construction, in two stages:

        1. the *lowest-numbered invalid* way, if any (ways fill in index
           order from a purged cache);
        2. otherwise the way with the *smallest LRU stamp* — true LRU,
           since :meth:`_claim_line` assigns stamps from a strictly
           increasing tick, so stamps within a set are unique and the
           minimum never needs a tie-break.

        Pinned by the eviction-order regression tests at 2 and 4 ways
        (``tests/hw/test_hierarchy.py``).
        """
        tags = self._tags[:, set_idx].tolist()
        if _INVALID in tags:
            return tags.index(_INVALID)
        stamps = self._lru[:, set_idx].tolist()
        return stamps.index(min(stamps))

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

    # ---- the line step --------------------------------------------------------

    def _claim_line(self, set_idx: int, tag: int, k: int,
                    write: bool) -> int:
        """The word loop's ``k`` accesses to one line, as one step, on
        any number of ways; returns the line's way.

        A hit costs one tag compare (direct-mapped) or one pass over the
        ways (:meth:`_find_way`).  A miss checks the line
        (:meth:`_check_line`), then evicts the way :meth:`_victim_way`
        names and fills it.  The accesses count one miss and ``k - 1``
        hits (or ``k`` hits) with their cycles, and the LRU stamp ends
        ``k`` ticks later, where the word loop leaves it.  A write also
        takes the store's tail, for a word and a run's slice alike: a
        write-back line turns dirty; write-through charges a write-back
        per word (the caller stores to memory) and, with a hierarchy,
        bumps the line's epoch once and re-stamps it (the epoch only has
        to differ from stale fill stamps, not count stores).
        """
        ways = self.geo.associativity
        if ways == 1:
            way = 0 if self._tags.item(0, set_idx) == tag else None
        else:
            way = self._find_way(set_idx, tag)
        if way is not None:
            if write:
                self.counters.write_hits += k
            else:
                self.counters.read_hits += k
            self.clock.cycles += k * self.cost.cache_hit
        else:
            self._check_line(tag)
            counters = self.counters
            if write:
                counters.write_misses += 1
                counters.write_hits += k - 1
            else:
                counters.read_misses += 1
                counters.read_hits += k - 1
            way = self._victim_way(set_idx) if ways > 1 else 0
            self._evict(way, set_idx)
            self._fill(way, set_idx, tag)
            self.clock.cycles += (k - 1) * self.cost.cache_hit
        self._tick += k
        self._lru[way, set_idx] = self._tick
        if write:
            if not self.geo.write_through:
                self._dirty[way, set_idx] = True
            else:
                self.clock.cycles += k * self.cost.write_back
                if self.hierarchy is not None:
                    self.hierarchy.note_memory_write(tag)
                    self._fill_epoch[way, set_idx] = \
                        self.hierarchy.epoch_of(tag)
        return way

    # ---- word access -------------------------------------------------------

    def read(self, vaddr: int, paddr: int) -> int:
        """CPU load of the word at (vaddr -> paddr); returns its value."""
        set_idx, tag, word = self._decode(vaddr, paddr)
        way = self._claim_line(set_idx, tag, 1, False)
        return self._data.item(way, set_idx, word)

    def write(self, vaddr: int, paddr: int, value: int) -> None:
        """CPU store of the word at (vaddr -> paddr).

        Write-back mode allocates on miss and marks the line dirty;
        write-through mode propagates the store to memory immediately and
        never dirties a line (the Section 3.3 write-through variant).
        """
        set_idx, tag, word = self._decode(vaddr, paddr)
        way = self._claim_line(set_idx, tag, 1, True)
        self._data[way, set_idx, word] = value
        if self.geo.write_through:
            self.memory.write_word(paddr, value)

    def _store_line(self, set_idx: int, tag: int, word: int,
                    chunk: np.ndarray, paddr: int) -> None:
        """Store ``chunk`` into one line from word ``word`` on (physical
        address ``paddr``): one claim, one slice store and, write-through,
        one memory store."""
        k = len(chunk)
        way = self._claim_line(set_idx, tag, k, True)
        self._data[way, set_idx, word:word + k] = chunk
        if self.geo.write_through:
            self.memory.write_words(paddr, chunk)

    # ---- contiguous word runs (the batched access engine) --------------------

    def _run_shape(self, vaddr: int, paddr: int, n_words: int, s0: int,
                   tag: int, word: int):
        """The line-level shape of a run whose first word decodes
        (:meth:`_decode`) to set ``s0``, line tag ``tag`` and word
        ``word`` within that line.

        Returns ``(sets, want, offsets)``: the set slice the run covers,
        the physical line tags it wants, and each line's LRU stamp as an
        offset from the current tick (the running count of run words up
        to the end of that line: the word loop's last touch of the line,
        and the end of the line's words in the run, :meth:`_run_lines`).

        A run must stay within one page; ``want`` is a read-only slice of
        the page's :meth:`_page_tags`, which also rejects a page outside
        physical memory.  Both checks come before any change.
        """
        geo = self.geo
        if vaddr // geo.page_size != \
                (vaddr + (n_words - 1) * WORD_SIZE) // geo.page_size:
            raise AddressError("a cache run must stay within one page")
        wpl = geo.words_per_line
        n_lines = (word + n_words - 1) // wpl + 1
        i0 = tag % geo.lines_per_page
        want = self._page_tags(paddr - paddr % geo.page_size)[i0:i0 + n_lines]
        offsets = np.arange(wpl - word, n_lines * wpl - word + 1, wpl,
                            dtype=np.int64)
        offsets[-1] = n_words
        return slice(s0, s0 + n_lines), want, offsets

    def _run_lines(self, vaddr: int, paddr: int, n_words: int, s0: int,
                   tag: int, word: int) -> list[tuple[int, int, int, int, int]]:
        """The lines of a run (arguments as :meth:`_run_shape`, whose
        checks it shares), in order, as ``(set index, line tag, first
        word in the line, start, end)``: the line holds the run's words
        ``start`` up to ``end``.  The one walk of associative runs and
        pages, and of every per-line probe and snoop."""
        bounds = [0] + self._run_shape(vaddr, paddr, n_words, s0, tag,
                                       word)[2].tolist()
        return [(s0 + i, tag + i, word if i == 0 else 0, start, end)
                for i, (start, end) in enumerate(zip(bounds, bounds[1:]))]

    def _read_lines(self, vaddr: int, paddr: int, n_words: int, s0: int,
                    tag: int, word: int) -> np.ndarray:
        """An associative run or page read: one claim and one slice copy
        per line of the walk."""
        out = np.empty(n_words, dtype=np.uint64)
        for set_idx, line, first, start, end in self._run_lines(
                vaddr, paddr, n_words, s0, tag, word):
            way = self._claim_line(set_idx, line, end - start, False)
            out[start:end] = self._data[way, set_idx,
                                        first:first + end - start]
        return out

    def _write_lines(self, vaddr: int, paddr: int, values: np.ndarray,
                     s0: int, tag: int, word: int) -> None:
        """An associative run or page write: one :meth:`_store_line` per
        line of the walk."""
        for set_idx, line, first, start, end in self._run_lines(
                vaddr, paddr, len(values), s0, tag, word):
            self._store_line(set_idx, line, first, values[start:end],
                             paddr + start * WORD_SIZE)

    def _claim_lines(self, sets: slice, want: np.ndarray) -> int:
        """Make the lines ``want`` of a direct-mapped run or page resident
        in ``sets``, charging the fills and victim write-backs (not the
        hits); return how many lines missed.

        With a hierarchy the missing lines are serviced one at a time
        (:meth:`_service_lines`); without one, by :func:`fill_lines`.
        """
        if self.hierarchy is not None:
            misses = self._tags[0, sets] != want
            self._service_lines(sets, want, misses)
            return int(np.count_nonzero(misses))
        n_miss, n_wb = fill_lines(self._tags[0], self._dirty[0],
                                  self._data[0], self._mem_lines, sets, want)
        self.counters.write_backs += n_wb
        self.clock.cycles += (n_miss * self.cost.line_fill
                              + n_wb * self.cost.write_back)
        return n_miss

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

        A run that lies in one line (every syscall request and reply) is
        one line step (:meth:`_claim_line`) and one copied slice, on any
        cache — the trace interpreter's one-line rule.  A longer run is
        one line step per line on an associative cache
        (:meth:`_read_lines`) and vectorized on a direct-mapped one
        (:meth:`_run_shape`, :meth:`_claim_lines`).  A zero-word run
        changes nothing; a negative length raises :class:`AddressError`
        before any change.  The returned array is always fresh: the
        caller owns it, and writing into it changes no line.
        """
        if n_words < 1:
            _check_run_length(n_words)
            return np.empty(0, dtype=np.uint64)
        set_idx, tag, word = self._decode(vaddr, paddr)
        if word + n_words <= self.geo.words_per_line:
            way = self._claim_line(set_idx, tag, n_words, False)
            return self._data[way, set_idx, word:word + n_words].copy()
        if self.geo.associativity > 1:
            return self._read_lines(vaddr, paddr, n_words, set_idx, tag,
                                    word)
        sets, want, offsets = self._run_shape(vaddr, paddr, n_words,
                                              set_idx, tag, word)
        n_miss = self._claim_lines(sets, want)
        self.clock.advance((n_words - n_miss) * self.cost.cache_hit)
        self.counters.read_hits += n_words - n_miss
        self.counters.read_misses += n_miss
        self._lru[0, sets] = self._tick + offsets
        self._tick += n_words
        return self._data[0, sets].reshape(-1)[word:word + n_words].copy()

    def write_run(self, vaddr: int, paddr: int, values: np.ndarray) -> None:
        """Store ``values`` to consecutive words starting at (vaddr -> paddr).

        Word-loop equivalent, by the same paths as :meth:`read_run` (a run
        in one line is one :meth:`_store_line`; a longer associative run
        one per line, :meth:`_write_lines`); like the word loop it fills
        every missing line before storing into it, so partially
        overwritten lines keep their memory contents.  No values, no
        change.
        """
        n_words = len(values)
        if not n_words:
            return
        set_idx, tag, word = self._decode(vaddr, paddr)
        values = np.asarray(values, dtype=np.uint64)
        if word + n_words <= self.geo.words_per_line:
            self._store_line(set_idx, tag, word, values, paddr)
            return
        if self.geo.associativity > 1:
            self._write_lines(vaddr, paddr, values, set_idx, tag, word)
            return
        sets, want, offsets = self._run_shape(vaddr, paddr, n_words,
                                              set_idx, tag, word)
        n_miss = self._claim_lines(sets, want)
        cycles = (n_words - n_miss) * self.cost.cache_hit
        self._data[0, sets].reshape(-1)[word:word + n_words] = values
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
        self._lru[0, sets] = self._tick + offsets
        self._tick += n_words

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
        Every page-frame operation and every long run asks here first, so
        a page outside physical memory raises :class:`AddressError` here,
        before any array or the clock changes.
        """
        tags = self._page_tags_cache.get(pa_page_base)
        if tags is None:
            if pa_page_base % self.geo.page_size:
                raise AddressError("physical page base must be page aligned")
            if not 0 <= pa_page_base < self.memory.size:
                raise AddressError(f"physical page base {pa_page_base:#x} "
                                   "out of range")
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
        if self.geo.associativity == 1 and self.hierarchy is None:
            hits, n_dirty = flush_lines(self._tags[0], self._dirty[0],
                                        self._data[0], self._mem_lines,
                                        sets, want)
        else:
            hits, n_dirty = self._flush_masked(sets, want)
        self.counters.write_backs += n_dirty
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

    def _flush_masked(self, sets: slice, want: np.ndarray) -> tuple[int, int]:
        """Flush over every way at once, by masks, for associative caches
        and for caches with a hierarchy below (each written-back tag is
        noted to it).  Returns (resident lines, lines written back)."""
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
            if self.hierarchy is not None:
                for tag in want[lines]:
                    self.hierarchy.note_memory_write(int(tag))
        self._tags[:, sets][match] = _INVALID
        self._dirty[:, sets][match] = False
        return hits, n_dirty

    def purge_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        """Invalidate, without write-back, every line of the physical page
        resident in ``cache_page``.  Returns the number of lines discarded.

        The 720's instruction cache purges in constant time regardless of
        contents (Section 5.1); that quirk is modeled here.
        """
        sets = self._page_sets(cache_page)
        want = self._page_tags(pa_page_base)
        if self.geo.associativity == 1:
            hits = purge_lines(self._tags[0], self._dirty[0], sets, want)
        else:
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
        """Read one whole page through the cache; return its contents as
        the CPU would observe them.

        On a direct-mapped cache the contents, tags and dirty bits end as
        after the word loop, but the accounting is per line, not per
        word: a resident line counts one read hit and ``words_per_line``
        hit cycles, a missing line one read miss and one line fill (after
        its dirty victim's write-back), and no LRU stamp moves.  An
        associative cache reads the page as a run, one line step per
        line (:meth:`_read_lines`), so there every word counts.
        """
        self._check_page_pair(va_page_base, pa_page_base)
        if self.geo.associativity > 1:
            return self._read_lines(va_page_base, pa_page_base,
                                    self.geo.words_per_page,
                                    *self._decode(va_page_base, pa_page_base))
        want = self._page_tags(pa_page_base)
        sets = self._page_sets(self.cache_page_of(va_page_base, pa_page_base))
        n_miss = self._claim_lines(sets, want)
        n_hit = self.geo.lines_per_page - n_miss
        self.clock.advance(n_hit * self.geo.words_per_line
                           * self.cost.cache_hit)
        self.counters.read_hits += n_hit
        self.counters.read_misses += n_miss
        return self._data[0, sets].reshape(-1).copy()

    def write_page(self, va_page_base: int, pa_page_base: int,
                   values: np.ndarray) -> None:
        """Overwrite one whole page through the cache.

        Because every line is written in full, no fill is needed
        (write-allocate without fetch); dirty victims are written back
        first.  In write-through mode the values also reach memory and no
        line is left dirty.  On a direct-mapped cache this counts no hit
        or miss and moves no LRU stamp: it charges ``words_per_page`` hit
        cycles (plus a write-back per word in write-through mode) and the
        victims' write-backs.  An associative cache writes the page as a
        run, one line step per line (:meth:`_write_lines`), so there
        every word counts.
        """
        self._check_page_pair(va_page_base, pa_page_base)
        if len(values) != self.geo.words_per_page:
            raise AddressError("write_page requires exactly one page of words")
        if self.geo.associativity > 1:
            self._write_lines(va_page_base, pa_page_base,
                              np.asarray(values, dtype=np.uint64),
                              *self._decode(va_page_base, pa_page_base))
            return
        want = self._page_tags(pa_page_base)
        sets = self._page_sets(self.cache_page_of(va_page_base, pa_page_base))
        lines = np.asarray(values, dtype=np.uint64).reshape(
            self.geo.lines_per_page, self.geo.words_per_line)
        if self.hierarchy is None:
            n_wb = store_lines(self._tags[0], self._dirty[0], self._data[0],
                               self._mem_lines, sets, want, lines)
            self.counters.write_backs += n_wb
            self.clock.cycles += n_wb * self.cost.write_back
        else:
            # Evict (and possibly capture below) every non-matching valid
            # line; matching lines are overwritten in place, needing no
            # fill because the whole line is replaced.
            tags = self._tags[0, sets]
            stale = (tags != want) & (tags != _INVALID)
            for i in np.flatnonzero(stale):
                self._evict(0, sets.start + int(i))
            tags[:] = want
            self._data[0, sets] = lines
            self._dirty[0, sets] = True
        n_words = self.geo.words_per_page
        if self.geo.write_through:
            self._dirty[0, sets] = False
            self.memory.write_page(pa_page_base // self.geo.page_size,
                                   lines.reshape(-1))
            if self.hierarchy is not None:
                self.hierarchy.invalidate_page(
                    pa_page_base // self.geo.page_size)
                self._fill_epoch[0, sets] = self.hierarchy.epochs_of(want)
            self.clock.advance(n_words * (self.cost.cache_hit
                                          + self.cost.write_back))
        else:
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
        (or an injected snoop race) is even relevant.  Zero words find
        nothing, as in :meth:`read_run`."""
        if n_words < 1:
            _check_run_length(n_words)
            return 0, 0
        decoded = self._decode(vaddr, paddr)
        if self.geo.associativity > 1:
            found = dirty = 0
            for set_idx, tag, *_ in self._run_lines(vaddr, paddr, n_words,
                                                    *decoded):
                way = self._find_way(set_idx, tag)
                if way is not None:
                    found += 1
                    dirty += bool(self._dirty[way, set_idx])
            return found, dirty
        sets, want, _ = self._run_shape(vaddr, paddr, n_words, *decoded)
        hit = self._tags[0, sets] == want
        return int(hit.sum()), int((hit & self._dirty[0, sets]).sum())

    def snoop_run(self, vaddr: int, paddr: int, n_words: int,
                  invalidate: bool, write_back: bool = True) -> tuple[int, int]:
        """Vectorized coherence probe for a whole run (or page) at once.

        Semantically identical to calling :meth:`snoop` per line of the
        run — which associative caches and caches with a hierarchy below
        do; returns ``(resident, dirty)`` line counts so the cluster can
        account coherence traffic.  Snoop probes themselves are free on
        the shared clock (the bus runs them in parallel with the access);
        only dirty write-backs cost cycles, exactly as a victim
        write-back does.  Zero words snoop nothing, as in
        :meth:`read_run`.
        """
        if n_words < 1:
            _check_run_length(n_words)
            return 0, 0
        geo = self.geo
        decoded = self._decode(vaddr, paddr)
        if geo.associativity > 1 or self.hierarchy is not None:
            found = [self.snoop(set_idx, tag, invalidate,
                                write_back=write_back)
                     for set_idx, tag, *_ in self._run_lines(
                         vaddr, paddr, n_words, *decoded)]
            return len(found) - found.count(None), found.count("dirty")
        sets, want, _ = self._run_shape(vaddr, paddr, n_words, *decoded)
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
