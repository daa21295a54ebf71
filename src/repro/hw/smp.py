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

Two additions make the cluster drivable by the whole stack:

* **Snoop-race injection.**  The cluster holds an optional fault
  ``injector`` and consults it only when a peer copy makes a race
  observable (so every audit record is consequential by construction):
  a dropped invalidation, a lost read-snoop write-back (the reader
  fills from stale memory), a lost coherence write-back (dirty data
  discarded), and a misrouted invalidation that hits the equivalent
  line one cache page over while the real copy survives.
* **:class:`SmpDataCache`** — a facade giving the cluster the single
  ``dcache`` surface the :class:`~repro.hw.machine.Machine` expects, so
  pmap, kernel, oracle and monitors run unchanged; accesses route to
  ``current_cpu`` and management operations act cluster-wide.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hw.cache import Cache
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import Clock, Counters, Reason


class CoherentCluster:
    """``n`` coherent virtually indexed caches over one memory."""

    def __init__(self, n_cpus: int, geometry: CacheGeometry,
                 memory: PhysicalMemory, cost: CostModel, clock: Clock,
                 counters: Counters, hierarchy=None):
        if n_cpus < 1:
            raise ConfigurationError("a cluster needs at least one CPU")
        self.geometry = geometry
        self.memory = memory
        self.cost = cost
        self.clock = clock
        self.counters = counters
        # One shared lower hierarchy (victim/L2) below all CPUs: it is
        # physically addressed and holds only memory-equal copies, so it
        # needs no per-CPU instance and no snoop protocol of its own.
        self.hierarchy = hierarchy
        self.caches = [Cache(geometry, memory, cost, clock, counters,
                             name=f"cpu{i}.dcache", hierarchy=hierarchy)
                       for i in range(n_cpus)]
        # Fault injection: None by default so the snoop hot path pays one
        # identity check (same contract as pmap/dma/disk/tlb).
        self.injector = None

    def __len__(self) -> int:
        return len(self.caches)

    # Coherence traffic lives in the shared Counters so metrics export,
    # the profiler and chaos reports all see it; these properties keep
    # the original cluster-local read surface.

    @property
    def coherence_invalidations(self) -> int:
        return self.counters.coherence_invalidations

    @property
    def coherence_writebacks(self) -> int:
        return self.counters.coherence_writebacks

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
        detail = dict(ppage=paddr // self.geometry.page_size,
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
        geo = self.geometry
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
                    vaddr + self.geometry.page_size, paddr, n_words,
                    invalidate)
                counters.coherence_writebacks += dirty
                if invalidate:
                    counters.coherence_invalidations += found
            # "drop" and "stale": skipped entirely.

    # ---- CPU accesses --------------------------------------------------------------

    def read(self, cpu: int, vaddr: int, paddr: int) -> int:
        """Load on ``cpu``: a remote dirty equivalent line is written back
        (and left clean/shared) before the local access."""
        self._snoop_others(cpu, vaddr, paddr, invalidate=False)
        return self.caches[cpu].read(vaddr, paddr)

    def write(self, cpu: int, vaddr: int, paddr: int, value: int) -> None:
        """Store on ``cpu``: remote equivalent copies are invalidated
        (dirty ones written back first), keeping a single-writer
        invariant per equivalent line."""
        self._snoop_others(cpu, vaddr, paddr, invalidate=True)
        self.caches[cpu].write(vaddr, paddr, value)

    def read_run(self, cpu: int, vaddr: int, paddr: int, n_words: int):
        self._snoop_run_others(cpu, vaddr, paddr, n_words, invalidate=False)
        return self.caches[cpu].read_run(vaddr, paddr, n_words)

    def write_run(self, cpu: int, vaddr: int, paddr: int, values) -> None:
        self._snoop_run_others(cpu, vaddr, paddr, len(values),
                               invalidate=True)
        self.caches[cpu].write_run(vaddr, paddr, values)

    def read_page(self, cpu: int, va_page_base: int, pa_page_base: int):
        self._snoop_run_others(cpu, va_page_base, pa_page_base,
                               self.geometry.words_per_page,
                               invalidate=False)
        return self.caches[cpu].read_page(va_page_base, pa_page_base)

    def write_page(self, cpu: int, va_page_base: int, pa_page_base: int,
                   values) -> None:
        self._snoop_run_others(cpu, va_page_base, pa_page_base,
                               self.geometry.words_per_page,
                               invalidate=True)
        self.caches[cpu].write_page(va_page_base, pa_page_base, values)

    def zero_page(self, cpu: int, va_page_base: int,
                  pa_page_base: int) -> None:
        self._snoop_run_others(cpu, va_page_base, pa_page_base,
                               self.geometry.words_per_page,
                               invalidate=True)
        self.caches[cpu].zero_page(va_page_base, pa_page_base)

    # ---- cluster-wide cache management ------------------------------------------------

    def flush_page_frame(self, cache_page: int, pa_page_base: int,
                         reason) -> int:
        """Flush the physical page out of every cache in the cluster —
        what the unchanged software rules invoke on this hardware."""
        return sum(cache.flush_page_frame(cache_page, pa_page_base, reason)
                   for cache in self.caches)

    def purge_page_frame(self, cache_page: int, pa_page_base: int,
                         reason) -> int:
        return sum(cache.purge_page_frame(cache_page, pa_page_base, reason)
                   for cache in self.caches)

    # ---- invariants --------------------------------------------------------------------

    def dirty_copies(self, set_idx: int, tag: int) -> int:
        """How many caches hold a dirty copy of an equivalent line (the
        hardware invariant says at most one)."""
        count = 0
        for cache in self.caches:
            way = cache._find_way(set_idx, tag)
            if way is not None and cache._dirty[way, set_idx]:
                count += 1
        return count

    def resident_copies(self, set_idx: int, tag: int) -> int:
        return sum(1 for cache in self.caches
                   if cache._find_way(set_idx, tag) is not None)


class SmpDataCache:
    """The cluster behind the machine's single-``dcache`` surface.

    The machine, pmap, kernel, oracle and monitors all speak to one
    ``dcache`` object.  On a multiprocessor this facade stands in for
    it: the machine sets :attr:`current_cpu` from the faulting task's
    CPU binding before each access, access paths snoop the peers and
    delegate to that CPU's cache, and management operations (flush,
    purge, invalidate) act cluster-wide — the kernel's consistency rules
    are CPU-agnostic, exactly as Section 3.3 requires.

    Delegation resolves ``cluster.caches[cpu]`` methods at call time, so
    per-CPU conformance monitors that rebind methods on the underlying
    caches keep intercepting traffic routed through the facade.
    """

    is_icache = False

    def __init__(self, cluster: CoherentCluster):
        self.cluster = cluster
        self.geo = cluster.geometry
        self.memory = cluster.memory
        self.cost = cluster.cost
        self.clock = cluster.clock
        self.counters = cluster.counters
        self.name = "dcache"
        self.current_cpu = 0

    @property
    def bus(self):
        return self.cluster.caches[0].bus

    @bus.setter
    def bus(self, bus) -> None:
        for cache in self.cluster.caches:
            cache.bus = bus

    # ---- accesses (routed to the current CPU) -------------------------------

    def read(self, vaddr: int, paddr: int) -> int:
        return self.cluster.read(self.current_cpu, vaddr, paddr)

    def write(self, vaddr: int, paddr: int, value: int) -> None:
        self.cluster.write(self.current_cpu, vaddr, paddr, value)

    def read_run(self, vaddr: int, paddr: int, n_words: int):
        return self.cluster.read_run(self.current_cpu, vaddr, paddr, n_words)

    def write_run(self, vaddr: int, paddr: int, values) -> None:
        self.cluster.write_run(self.current_cpu, vaddr, paddr, values)

    def read_page(self, va_page_base: int, pa_page_base: int):
        return self.cluster.read_page(self.current_cpu, va_page_base,
                                      pa_page_base)

    def write_page(self, va_page_base: int, pa_page_base: int,
                   values) -> None:
        self.cluster.write_page(self.current_cpu, va_page_base,
                                pa_page_base, values)

    def zero_page(self, va_page_base: int, pa_page_base: int) -> None:
        self.cluster.zero_page(self.current_cpu, va_page_base, pa_page_base)

    # ---- management and inspection (cluster-wide) ---------------------------

    def cache_page_of(self, vaddr: int, paddr: int | None = None) -> int:
        return self.cluster.caches[0].cache_page_of(vaddr, paddr)

    def flush_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        return self.cluster.flush_page_frame(cache_page, pa_page_base, reason)

    def purge_page_frame(self, cache_page: int, pa_page_base: int,
                         reason: Reason = Reason.EXPLICIT) -> int:
        return self.cluster.purge_page_frame(cache_page, pa_page_base, reason)

    def resident_lines(self, cache_page: int, pa_page_base: int) -> int:
        return sum(cache.resident_lines(cache_page, pa_page_base)
                   for cache in self.cluster.caches)

    def dirty_lines(self, cache_page: int, pa_page_base: int) -> int:
        return sum(cache.dirty_lines(cache_page, pa_page_base)
                   for cache in self.cluster.caches)

    def dirty_cache_pages(self, pa_page_base: int) -> list[int]:
        pages: set[int] = set()
        for cache in self.cluster.caches:
            pages.update(cache.dirty_cache_pages(pa_page_base))
        return sorted(pages)

    def line_value(self, cache_page: int, pa_page_base: int, line: int):
        # The snoop protocol keeps at most one dirty copy; for clean
        # copies any resident one is as good as another.
        for cache in self.cluster.caches:
            value = cache.line_value(cache_page, pa_page_base, line)
            if value is not None:
                return value
        return None

    def invalidate_all(self) -> None:
        for cache in self.cluster.caches:
            cache.invalidate_all()
