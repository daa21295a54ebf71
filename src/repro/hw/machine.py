"""The simulated machine: CPU access paths, TLB, caches, memory, DMA.

The machine implements the HP 9000/700 access pipeline the paper assumes
(Section 1.1): the TLB translates the virtual page in parallel with the
virtually-indexed cache lookup, and the physical frame number is compared
against the cache's physical tag.  In the simulator this appears as:
translate (TLB, falling back to the page tables, falling back to a fault),
then access the cache with both the virtual address (for the index) and
the physical address (for the tag).

The machine knows nothing about consistency policy.  It exposes:

* user-level word accesses (:meth:`read`, :meth:`write`, :meth:`ifetch`)
  that fault into a pluggable handler when the installed protection denies
  the access — the mechanism Section 4 uses to catch state transitions;
* its components (``dcache``, ``icache``, ``memory``, ``dma``, ``tlb``)
  for the machine-dependent OS layer to drive directly.

If consistency checking is enabled, every transferred value is verified
against the staleness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.oracle import ShadowMemory
from repro.errors import (AddressError, ConfigurationError, FaultLoopError,
                          ProtectionError)
from repro.hw.cache import Cache
from repro.hw.dma import DmaEngine
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.params import WORD_SIZE, MachineConfig
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters
from repro.hw.tlb import Tlb
from repro.obs.events import EventBus
from repro.prot import AccessKind

MAX_FAULT_RETRIES = 8


@dataclass(frozen=True)
class FaultInfo:
    """Everything the fault handler learns from the hardware trap."""

    asid: int
    vaddr: int
    access: AccessKind


# (asid, vpage) -> (ppage, prot) or (ppage, prot, uncached) or None
TranslationSource = Callable[[int, int], Optional[tuple]]
FaultHandler = Callable[[FaultInfo], None]


class Machine:
    """A machine with split virtually-indexed I/D caches and DMA.

    ``config.n_cpus == 1`` is the paper's uniprocessor.  With more CPUs
    ``dcache`` is a Section 3.3 :class:`CoherentCluster` of per-CPU
    caches; accesses are routed to the CPU the task's address space is
    bound to (:meth:`bind_cpu`), and the instruction cache stays shared
    (it is never dirty, so it needs no coherence).  ``dcaches`` lists
    every L1 data cache in CPU order: ``(dcache,)`` on one CPU, the
    cluster's per-CPU caches on several.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        self.page_size = config.page_size
        self.clock = Clock()
        self.counters = Counters()
        # One event bus for the whole machine (and the kernel built on
        # it); disabled by default so the batched hot paths pay nothing.
        self.bus = EventBus(self.clock)
        self.memory = PhysicalMemory(config.phys_pages, config.page_size)
        self.oracle = (ShadowMemory(config.phys_pages, config.page_size)
                       if config.check_consistency else None)
        # The shared lower hierarchy (victim cache / unified L2), or None
        # for the seed single-level machine.  It is physically addressed,
        # so one instance safely backs all first-level caches.
        self.hierarchy = (CacheHierarchy(self.memory, config.cost,
                                         self.clock, self.counters,
                                         config.dcache.line_size,
                                         victim_lines=config.victim_lines,
                                         l2=config.l2)
                          if config.has_hierarchy else None)
        if config.n_cpus > 1:
            self.dcache = CoherentCluster(config.n_cpus, config.dcache,
                                          self.memory, config.cost,
                                          self.clock, self.counters,
                                          hierarchy=self.hierarchy)
            self.dcaches = tuple(self.dcache.caches)
            # asid -> CPU; unbound address spaces run on CPU 0 (where
            # the kernel's own asid-0 accesses also land).
            self.cpu_bindings: dict[int, int] | None = {}
        else:
            self.cpu_bindings = None
            self.dcache = Cache(config.dcache, self.memory, config.cost,
                                self.clock, self.counters, name="dcache",
                                hierarchy=self.hierarchy)
            self.dcaches = (self.dcache,)
        self.icache = Cache(config.icache, self.memory, config.cost,
                            self.clock, self.counters, name="icache",
                            is_icache=True, hierarchy=self.hierarchy)
        self.tlb = Tlb(config.tlb_entries, config.cost, self.clock,
                       self.counters)
        self.dma = DmaEngine(self.memory, config, self.clock, self.counters,
                             oracle=self.oracle, hierarchy=self.hierarchy)
        for component in (*self.dcaches, self.icache, self.tlb, self.dma):
            component.bus = self.bus
        # Installed by the OS layer.
        self.translation_source: TranslationSource | None = None
        self.fault_handler: FaultHandler | None = None
        # Hardware page-modified bit: invoked with (asid, vpage) on every
        # successful store.  Section 4.1's implementation uses the modified
        # bit to set cache_dirty without taking a write fault when a page's
        # mapping is already writable.
        self.write_notifier: Callable[[int, int], None] | None = None

    # ---- CPU scheduling ------------------------------------------------------

    def bind_cpu(self, asid: int, cpu: int) -> None:
        """Pin an address space to a CPU; its accesses go through that
        CPU's cache.  (This models which processor the task is scheduled
        on; the simulator executes one access at a time, so binding is
        the whole scheduling interface the hardware needs.)  A CPU
        outside ``0 .. n_cpus - 1`` raises :class:`ConfigurationError`
        on every CPU count."""
        n_cpus = self.config.n_cpus
        if not 0 <= cpu < n_cpus:
            raise ConfigurationError(
                f"CPU {cpu} out of range for {n_cpus} CPU(s)")
        if self.cpu_bindings is not None:
            self.cpu_bindings[asid] = cpu

    # ---- translation with fault retry ---------------------------------------

    def _translate(self, asid: int, vaddr: int,
                   access: AccessKind) -> tuple[int, bool]:
        """Translate a virtual address, faulting into the OS as needed.

        Returns (physical address, uncached).  Raises
        :class:`FaultLoopError` if the handler fails to make progress, and
        :class:`ProtectionError` if no handler is installed.
        """
        if self.cpu_bindings is not None:
            # Route the access to the CPU this address space runs on;
            # every access path translates first, so this one store is
            # the complete SMP routing layer.
            self.dcache.current_cpu = self.cpu_bindings.get(asid, 0)
        page_size = self.page_size
        vpage = vaddr // page_size
        need = access.need
        # A TLB hit with the rights the access needs returns at once; any
        # other outcome of this lookup is the retry loop's attempt 0, so
        # a translate still charges exactly the word loop's lookups.
        entry = self.tlb.lookup(asid, vpage)
        if entry is not None and entry.rights & need == need:
            return entry.ppage * page_size + vaddr % page_size, entry.uncached
        for attempt in range(MAX_FAULT_RETRIES + 1):
            if attempt:
                entry = self.tlb.lookup(asid, vpage)
            if entry is None and self.translation_source is not None:
                translation = self.translation_source(asid, vpage)
                if translation is not None:
                    ppage, prot, *rest = translation
                    self.tlb.insert(asid, vpage, ppage, prot,
                                    uncached=bool(rest and rest[0]))
                    entry = self.tlb.lookup(asid, vpage)
            if entry is not None and entry.rights & need == need:
                return (entry.ppage * page_size + vaddr % page_size,
                        entry.uncached)
            if attempt == MAX_FAULT_RETRIES:
                break  # the budget of handler invocations is spent
            if self.fault_handler is None:
                raise ProtectionError(
                    f"{access.value} of va {vaddr:#x} in asid {asid} denied "
                    f"and no fault handler installed")
            self.fault_handler(FaultInfo(asid, vaddr, access))
        raise FaultLoopError(
            f"{access.value} of va {vaddr:#x} in asid {asid} still faulting "
            f"after {MAX_FAULT_RETRIES} resolution attempts",
            asid=asid, vaddr=vaddr, access=access.value,
            attempts=MAX_FAULT_RETRIES)

    # ---- user-level CPU accesses ---------------------------------------------

    def read(self, asid: int, vaddr: int) -> int:
        """CPU load through the data cache (or straight from memory for
        an uncached mapping)."""
        paddr, uncached = self._translate(asid, vaddr, AccessKind.READ)
        if uncached:
            value = self.memory.read_word(paddr)
            self.clock.advance(self.config.cost.uncached_word)
        else:
            value = self.dcache.read(vaddr, paddr)
        if self.oracle is not None:
            self.oracle.check_cpu_read(paddr, value)
        return value

    def write(self, asid: int, vaddr: int, value: int) -> None:
        """CPU store through the data cache."""
        paddr, uncached = self._translate(asid, vaddr, AccessKind.WRITE)
        if self.write_notifier is not None:
            self.write_notifier(asid, vaddr // self.page_size)
        if uncached:
            self.memory.write_word(paddr, value)
            if self.hierarchy is not None:
                self.hierarchy.invalidate_span(paddr, 1)
            self.clock.advance(self.config.cost.uncached_word)
        else:
            self.dcache.write(vaddr, paddr, value)
        if self.oracle is not None:
            self.oracle.note_cpu_write(paddr, value)

    def ifetch(self, asid: int, vaddr: int) -> int:
        """Instruction fetch through the instruction cache."""
        paddr, _ = self._translate(asid, vaddr, AccessKind.EXECUTE)
        value = self.icache.read(vaddr, paddr)
        if self.oracle is not None:
            self.oracle.check_cpu_read(paddr, value)
        return value

    # ---- user-level block accesses (the batched access engine) ---------------

    def read_block(self, asid: int, vaddr: int, n_words: int) -> np.ndarray:
        """Read ``n_words`` consecutive words starting at ``vaddr``.

        Observationally equivalent to ``n_words`` calls to :meth:`read`:
        identical clock cycles, counters, cache and TLB state, and values.
        The block is split into per-page segments; each segment translates
        once (taking any fault exactly where the word loop would, at the
        segment's first word) and charges the TLB hits the remaining words
        would have taken.  Mid-segment faults cannot occur because page
        protections only change inside OS entry points, never between the
        user-level accesses of a run.

        A block within one page (every syscall exchange is one) is one
        segment and returns the run's own fresh array, uncopied; the
        returned array always belongs to the caller.  A zero-length block
        charges nothing; a negative length raises :class:`AddressError`
        before any translation.
        """
        room = (self.page_size - vaddr % self.page_size) // WORD_SIZE
        if 0 < n_words <= room:
            return self._read_segment(asid, vaddr, n_words)
        if n_words < 0:
            raise AddressError(f"block length must be non-negative, "
                               f"got {n_words}")
        out = np.empty(n_words, dtype=np.uint64)
        done = 0
        while done < n_words:
            va = vaddr + done * WORD_SIZE
            k = min((self.page_size - va % self.page_size) // WORD_SIZE,
                    n_words - done)
            out[done:done + k] = self._read_segment(asid, va, k)
            done += k
        return out

    def write_block(self, asid: int, vaddr: int, values) -> None:
        """Store consecutive words starting at ``vaddr``; word-loop
        equivalent (see :meth:`read_block`, also for the single-segment
        and zero-length blocks).  The modified-page notifier fires once
        per page segment (it is idempotent per page, like the
        page-granularity write path)."""
        values = np.asarray(values, dtype=np.uint64)
        n_words = len(values)
        room = (self.page_size - vaddr % self.page_size) // WORD_SIZE
        if n_words <= room:
            if n_words:
                self._write_segment(asid, vaddr, values)
            return
        done = 0
        while done < n_words:
            va = vaddr + done * WORD_SIZE
            k = min((self.page_size - va % self.page_size) // WORD_SIZE,
                    n_words - done)
            self._write_segment(asid, va, values[done:done + k])
            done += k

    def _read_segment(self, asid: int, va: int, n_words: int) -> np.ndarray:
        """One page segment of :meth:`read_block`: one translate, the TLB
        hits the word loop's remaining words would have taken, one run
        (or uncached memory access) and one oracle check."""
        paddr, uncached = self._translate(asid, va, AccessKind.READ)
        if n_words > 1:
            self.tlb.note_repeat_hits(n_words - 1)
        if uncached:
            values = self.memory.read_words(paddr, n_words)
            self.clock.advance(self.config.cost.uncached_word * n_words)
        else:
            values = self.dcache.read_run(va, paddr, n_words)
        if self.oracle is not None:
            self.oracle.check_run_read(paddr, values)
        return values

    def _write_segment(self, asid: int, va: int, values: np.ndarray) -> None:
        """One page segment of :meth:`write_block` (see
        :meth:`_read_segment`), with one modified-page notification."""
        n_words = len(values)
        paddr, uncached = self._translate(asid, va, AccessKind.WRITE)
        if n_words > 1:
            self.tlb.note_repeat_hits(n_words - 1)
        if self.write_notifier is not None:
            self.write_notifier(asid, va // self.page_size)
        if uncached:
            self.memory.write_words(paddr, values)
            if self.hierarchy is not None:
                self.hierarchy.invalidate_span(paddr, n_words)
            self.clock.advance(self.config.cost.uncached_word * n_words)
        else:
            self.dcache.write_run(va, paddr, values)
        if self.oracle is not None:
            self.oracle.note_run_write(paddr, values)

    # ---- user-level page-granularity accesses (one cache page op each) -------

    def read_page(self, asid: int, va_page_base: int) -> np.ndarray:
        paddr, uncached = self._translate(asid, va_page_base,
                                          AccessKind.READ)
        if uncached:
            values = self.memory.read_page(paddr // self.page_size)
            self.clock.advance(self.config.cost.uncached_word
                               * self.memory.words_per_page)
        else:
            values = self.dcache.read_page(va_page_base, paddr)
        if self.oracle is not None:
            self.oracle.check_page_read(paddr, values)
        return values

    def write_page(self, asid: int, va_page_base: int,
                   values: np.ndarray) -> None:
        paddr, uncached = self._translate(asid, va_page_base,
                                          AccessKind.WRITE)
        if self.write_notifier is not None:
            self.write_notifier(asid, va_page_base // self.page_size)
        if uncached:
            self.memory.write_page(paddr // self.page_size,
                                   np.asarray(values, dtype=np.uint64))
            if self.hierarchy is not None:
                self.hierarchy.invalidate_page(paddr // self.page_size)
            self.clock.advance(self.config.cost.uncached_word
                               * self.memory.words_per_page)
        else:
            self.dcache.write_page(va_page_base, paddr, values)
        if self.oracle is not None:
            self.oracle.note_page_write(paddr, values)

    # ---- time ------------------------------------------------------------------

    def consume(self, cycles: int) -> None:
        """Model computation unrelated to the memory system."""
        self.clock.advance(cycles)

    @property
    def elapsed_seconds(self) -> float:
        return self.config.cost.seconds(self.clock.cycles)
