"""Cache-coherent multiprocessor extension (Section 3.3).

"The caches in a cache-coherent multiprocessor can be viewed as a
distributed set-associative cache.  Equivalent cache lines from each
processor constitute an element of a set, while hardware ensures
inter-cache (intraset) consistency.  As with set-associative caches, no
changes to the transition rules are required."

:class:`CoherentCluster` implements exactly that hardware: ``n`` per-CPU
virtually indexed, physically tagged, write-back caches over one shared
physical memory, kept coherent by a write-invalidate (MSI-style) snoop
protocol *per equivalent line* — i.e. per (set index, physical tag).

Scope matches the paper's claim precisely: hardware resolves sharing
between processors that access data through **aligned** virtual
addresses (the same set); sharing through *unaligned* aliases remains a
software problem, governed by the unchanged Table 2 rules — on a
multiprocessor just as on a uniprocessor.  The tests demonstrate both
halves.

The cluster is the multiprocessor machine's data cache: it offers the
same access and management surface as one :class:`~repro.hw.cache.Cache`,
so pmap, kernel, oracle and monitors run unchanged.  Accesses go to the
cache of :attr:`CoherentCluster.current_cpu` (which the machine sets from
the task's CPU binding before each access) after snooping its peers;
page flushes and purges act on every CPU's cache, since the kernel's
consistency rules are CPU-agnostic, exactly as Section 3.3 requires.

**Snoop-race injection.**  The cluster holds an optional fault
``injector`` and consults it only when a peer copy makes a race
observable (so every audit record is consequential by construction): a
dropped invalidation, a lost read-snoop write-back (the reader fills
from stale memory), a lost coherence write-back (dirty data discarded),
and a misrouted invalidation that hits the equivalent line one cache
page over while the real copy survives.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hw.cache import Cache
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason


class CoherentCluster:
    """``n`` coherent virtually indexed caches over one memory, driven as
    one data cache.

    Every access method has :class:`~repro.hw.cache.Cache`'s signature
    and runs on ``caches[current_cpu]``.  Each per-CPU cache's method is
    looked up at call time, so conformance monitors that rebind methods
    on those caches (``Machine.dcaches``) see every access.
    """

    name = "dcache"

    def __init__(self, n_cpus: int, geometry: CacheGeometry,
                 memory: PhysicalMemory, cost: CostModel, clock: Clock,
                 counters: Counters, hierarchy=None):
        if n_cpus < 1:
            raise ConfigurationError("a cluster needs at least one CPU")
        self.geo = geometry
        self.counters = counters
        # One shared lower hierarchy (victim/L2) below all CPUs: it is
        # physically addressed and holds only memory-equal copies, so it
        # needs no per-CPU instance and no snoop protocol of its own.
        self.caches = [Cache(geometry, memory, cost, clock, counters,
                             name=f"cpu{i}.dcache", hierarchy=hierarchy)
                       for i in range(n_cpus)]
        self.current_cpu = 0
        # Fault injection: None by default so the snoop hot path pays one
        # identity check (same contract as pmap/dma/disk/tlb).
        self.injector = None

    # ---- snoop-race injection ----------------------------------------------------

    def _race(self, cpu: int, victim: int, paddr: int, invalidate: bool,
              dirty: bool) -> str | None:
        """Ask the injector whether this (relevant) snoop races.

        Called only when the victim holds an equivalent copy, so a firing
        always matters: the record is marked consequential and its frame
        joins :meth:`FaultInjector.consistency_frames`.  Returns the race
        kind to deliver, or None for a faithful snoop.
        """
        inj = self.injector
        if inj is None:
            return None
        detail = dict(ppage=paddr // self.geo.page_size,
                      cpu=cpu, victim=victim)
        if invalidate:
            if dirty:
                rec = inj.fires("smp.snoop.writeback.lost", **detail)
                if rec is not None:
                    rec.consequential = True
                    return "lost"
            rec = inj.fires("smp.snoop.invalidate.drop", **detail)
            if rec is not None:
                rec.consequential = True
                return "drop"
            rec = inj.fires("smp.snoop.invalidate.misroute", **detail)
            if rec is not None:
                rec.consequential = True
                return "misroute"
        elif dirty:
            rec = inj.fires("smp.snoop.writeback.stale", **detail)
            if rec is not None:
                rec.consequential = True
                return "stale"
        return None

    # ---- snoop protocol ----------------------------------------------------------

    def _snoop_others(self, cpu: int, vaddr: int, paddr: int,
                      invalidate: bool) -> None:
        geo = self.geo
        set_idx = geo.set_index(paddr if geo.physically_indexed else vaddr)
        tag = paddr // geo.line_size
        counters = self.counters
        for i, cache in enumerate(self.caches):
            if i == cpu:
                continue
            race = None
            if self.injector is not None:
                way = cache._find_way(set_idx, tag)
                if way is None:
                    continue        # no copy: nothing to snoop or to race
                race = self._race(cpu, i, paddr, invalidate,
                                  bool(cache._dirty[way, set_idx]))
            if race is None:
                found = cache.snoop(set_idx, tag, invalidate)
                if found == "dirty":
                    counters.coherence_writebacks += 1
                if found is not None and invalidate:
                    counters.coherence_invalidations += 1
            elif race == "lost":
                # Invalidate without the write-back: the dirty words die.
                cache.snoop(set_idx, tag, invalidate, write_back=False)
                counters.coherence_invalidations += 1
            elif race == "misroute":
                # The probe lands one cache page over.  Same physical tag,
                # so it can only hit an unaligned alias of the same line —
                # which it handles faithfully — while the intended copy
                # survives.  (With one cache page the wrong set wraps back
                # to the right one and the race degrades to a clean snoop.)
                wrong = (set_idx + geo.lines_per_page) % geo.num_sets
                found = cache.snoop(wrong, tag, invalidate)
                if found == "dirty":
                    counters.coherence_writebacks += 1
                if found is not None and invalidate:
                    counters.coherence_invalidations += 1
            # "drop" and "stale": the snoop never arrives at this peer.

    def _snoop_run_others(self, cpu: int, vaddr: int, paddr: int,
                          n_words: int, invalidate: bool) -> None:
        if n_words < 1:
            return      # no lines to snoop; the local cache judges the length
        counters = self.counters
        for i, cache in enumerate(self.caches):
            if i == cpu:
                continue
            race = None
            if self.injector is not None:
                resident, dirty = cache.probe_run(vaddr, paddr, n_words)
                if not resident:
                    continue
                # One race decision per peer per run — the whole run's
                # snoop is a single bus transaction in this model.
                race = self._race(cpu, i, paddr, invalidate, dirty > 0)
            if race is None:
                found, dirty = cache.snoop_run(vaddr, paddr, n_words,
                                               invalidate)
                counters.coherence_writebacks += dirty
                if invalidate:
                    counters.coherence_invalidations += found
            elif race == "lost":
                found, _ = cache.snoop_run(vaddr, paddr, n_words,
                                           invalidate, write_back=False)
                counters.coherence_invalidations += found
            elif race == "misroute":
                found, dirty = cache.snoop_run(
                    vaddr + self.geo.page_size, paddr, n_words,
                    invalidate)
                counters.coherence_writebacks += dirty
                if invalidate:
                    counters.coherence_invalidations += found
            # "drop" and "stale": skipped entirely.

    # ---- accesses (routed to the current CPU) -------------------------------

    def read(self, vaddr: int, paddr: int) -> int:
        """Load: a remote dirty equivalent line is written back (and left
        clean/shared) before the local access."""
        cpu = self.current_cpu
        self._snoop_others(cpu, vaddr, paddr, invalidate=False)
        return self.caches[cpu].read(vaddr, paddr)

    def write(self, vaddr: int, paddr: int, value: int) -> None:
        """Store: remote equivalent copies are invalidated (dirty ones
        written back first), keeping a single-writer invariant per
        equivalent line."""
        cpu = self.current_cpu
        self._snoop_others(cpu, vaddr, paddr, invalidate=True)
        self.caches[cpu].write(vaddr, paddr, value)

    def read_run(self, vaddr: int, paddr: int, n_words: int):
        cpu = self.current_cpu
        self._snoop_run_others(cpu, vaddr, paddr, n_words, invalidate=False)
        return self.caches[cpu].read_run(vaddr, paddr, n_words)

    def write_run(self, vaddr: int, paddr: int, values) -> None:
        cpu = self.current_cpu
        self._snoop_run_others(cpu, vaddr, paddr, len(values),
                               invalidate=True)
        self.caches[cpu].write_run(vaddr, paddr, values)

    def read_page(self, va_page_base: int, pa_page_base: int):
        cpu = self.current_cpu
        self._snoop_run_others(cpu, va_page_base, pa_page_base,
                               self.geo.words_per_page, invalidate=False)
        return self.caches[cpu].read_page(va_page_base, pa_page_base)

    def write_page(self, va_page_base: int, pa_page_base: int,
                   values) -> None:
        cpu = self.current_cpu
        self._snoop_run_others(cpu, va_page_base, pa_page_base,
                               self.geo.words_per_page, invalidate=True)
        self.caches[cpu].write_page(va_page_base, pa_page_base, values)

    # ---- cluster-wide cache management ------------------------------------

    def flush_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        """Flush the physical page out of every cache in the cluster —
        what the unchanged software rules invoke on this hardware."""
        return sum(cache.flush_page_frame(cache_page, pa_page_base, reason)
                   for cache in self.caches)

    def purge_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        return sum(cache.purge_page_frame(cache_page, pa_page_base, reason)
                   for cache in self.caches)

    def resident_lines(self, cache_page: int, pa_page_base: int) -> int:
        return sum(cache.resident_lines(cache_page, pa_page_base)
                   for cache in self.caches)
