"""Event counters shared by the hardware components and the OS layers.

The paper's evaluation (Tables 1 and 4) is expressed almost entirely in
terms of counts: page flushes, page purges, mapping faults, consistency
faults, DMA-read flushes, and data-to-instruction-space copies, together
with the cycles each class of event consumed.  :class:`Counters` records
exactly those quantities, tagged by the *reason* the event occurred so the
Section 5.1 breakdown (9% of purges for DMA-writes, 17.5% for copies into
instruction space, ~80% for new mappings) can be regenerated.
"""

from __future__ import annotations

import enum
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields


class Clock:
    """A shared cycle counter.

    Every component of the simulated machine (CPU paths, caches, TLB, DMA
    engine, fault handling) advances the same clock, so ``clock.cycles`` is
    the elapsed machine time of a run and converts to seconds through
    :meth:`repro.hw.params.CostModel.seconds`.
    """

    __slots__ = ("cycles",)

    def __init__(self) -> None:
        self.cycles = 0

    def advance(self, cycles: int) -> None:
        # A negative or fractional delta would silently corrupt every
        # cycle attribution downstream (counters, profiler scopes, the
        # seconds conversion), so reject it at the source.  Integral
        # covers both Python ints and numpy integer scalars; bool is an
        # Integral but a delta of True is always a bug.
        if type(cycles) is int:
            # Exact-type fast path: the batched access engine advances the
            # clock once per run, and the two isinstance checks below are
            # measurable there.  Plain non-negative ints skip them.
            if cycles >= 0:
                self.cycles += cycles
                return
            raise ValueError(
                f"clock delta must be non-negative, got {cycles!r}")
        if (not isinstance(cycles, numbers.Integral)
                or isinstance(cycles, bool)):
            raise ValueError(
                f"clock delta must be an integer, got {cycles!r}")
        if cycles < 0:
            raise ValueError(
                f"clock delta must be non-negative, got {cycles!r}")
        self.cycles += int(cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Clock(cycles={self.cycles})"


class Reason(enum.Enum):
    """Why a cache-management operation (flush/purge) was performed."""

    NEW_MAPPING = "new-mapping"        # a physical page gained a new, unaligned mapping
    ALIAS_WRITE = "alias-write"        # a write through one alias invalidated another
    ALIAS_READ = "alias-read"          # a read forced a dirty alias out of the cache
    DMA_READ = "dma-read"              # flushed so a device reads fresh memory
    DMA_WRITE = "dma-write"            # purged so device data is not shadowed/overwritten
    D_TO_I_COPY = "d-to-i-copy"        # copying data space into instruction space
    UNMAP_EAGER = "unmap-eager"        # eager policy cleaning the cache at unmap time
    PAGEOUT = "pageout"                # page being evicted to backing store
    EXPLICIT = "explicit"              # direct request (tests, examples)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FaultKind(enum.Enum):
    """Classification of memory-management faults (Section 5.1).

    Mapping faults occur regardless of cache architecture (first touch of a
    virtual page, copy-on-write...).  Consistency faults exist only because
    the cache is virtually indexed and are counted as bookkeeping overhead.
    """

    MAPPING = "mapping"
    CONSISTENCY = "consistency"
    PROTECTION = "protection"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Counters:
    """Mutable event counters with cycle attribution.

    One instance is shared by the machine, its caches, the DMA engine and
    the kernel so that a single object describes a whole run.
    """

    # cache traffic
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    write_backs: int = 0

    # cache management, split per cache name ("dcache"/"icache") and reason
    page_flushes: Counter = field(default_factory=Counter)   # (cache, Reason) -> n
    page_purges: Counter = field(default_factory=Counter)    # (cache, Reason) -> n
    flush_cycles: Counter = field(default_factory=Counter)   # (cache, Reason) -> cycles
    purge_cycles: Counter = field(default_factory=Counter)   # (cache, Reason) -> cycles

    # faults
    faults: Counter = field(default_factory=Counter)         # FaultKind -> n
    fault_cycles: Counter = field(default_factory=Counter)   # FaultKind -> cycles

    # TLB
    tlb_hits: int = 0
    tlb_misses: int = 0

    # DMA
    dma_reads: int = 0        # device reads memory (disk write / pageout)
    dma_writes: int = 0       # device writes memory (disk read / pagein)

    # SMP snoop coherence (zero on a uniprocessor)
    coherence_invalidations: int = 0  # remote copies invalidated by a store
    coherence_writebacks: int = 0     # dirty remote copies written back by a snoop

    # lower cache hierarchy (zero without a victim cache / L2)
    victim_hits: int = 0      # L1 miss satisfied by the victim cache
    victim_captures: int = 0  # L1 victim lines captured by the victim cache
    l2_hits: int = 0          # L1 miss satisfied by the unified L2
    l2_fills: int = 0         # lines installed in the L2 from memory

    # OS-level events of interest to the evaluation
    d_to_i_copies: int = 0    # pages copied from data space into instruction space
    ipc_page_moves: int = 0
    pages_zero_filled: int = 0
    pages_copied: int = 0
    pages_made_uncached: int = 0  # Sun-style alias sets converted to uncached

    # external consistency policies (zero under the paper's ladder)
    rlt_lookups: int = 0      # reverse-lookup-table consults (rlt policy)
    rlt_skipped_ops: int = 0  # flush/purge proven unnecessary by the RLT
    superpage_mappings: int = 0  # superpage regions entered (vespa et al.)

    # fault recovery (all zero unless faults occur or are injected)
    disk_retries: int = 0           # disk/DMA transfers re-issued after a
                                    # transient failure (backoff charged)
    tlb_parity_recoveries: int = 0  # corrupted TLB entries caught by parity
                                    # and refilled from the page tables
    frames_quarantined: int = 0     # frames retired after failing DMA
                                    # transfer verification repeatedly

    def __repr__(self) -> str:
        return (f"Counters(reads={self.read_hits}h/{self.read_misses}m, "
                f"writes={self.write_hits}h/{self.write_misses}m, "
                f"write_backs={self.write_backs}, "
                f"tlb={self.tlb_hits}h/{self.tlb_misses}m, "
                f"flushes={self.total_flushes()}, "
                f"purges={self.total_purges()}, "
                f"faults={sum(self.faults.values())})")

    def record_flush(self, cache: str, reason: Reason, cycles: int) -> None:
        self.page_flushes[(cache, reason)] += 1
        self.flush_cycles[(cache, reason)] += cycles

    def record_purge(self, cache: str, reason: Reason, cycles: int) -> None:
        self.page_purges[(cache, reason)] += 1
        self.purge_cycles[(cache, reason)] += cycles

    def record_fault(self, kind: FaultKind, cycles: int) -> None:
        self.faults[kind] += 1
        self.fault_cycles[kind] += cycles

    # ---- aggregation helpers used by the analysis layer -------------------

    def total_flushes(self, cache: str | None = None,
                      reason: Reason | None = None) -> int:
        return self._total(self.page_flushes, cache, reason)

    def total_purges(self, cache: str | None = None,
                     reason: Reason | None = None) -> int:
        return self._total(self.page_purges, cache, reason)

    def total_flush_cycles(self, cache: str | None = None,
                           reason: Reason | None = None) -> int:
        return self._total(self.flush_cycles, cache, reason)

    def total_purge_cycles(self, cache: str | None = None,
                           reason: Reason | None = None) -> int:
        return self._total(self.purge_cycles, cache, reason)

    @staticmethod
    def _total(counter: Counter, cache: str | None, reason: Reason | None) -> int:
        # A cluster's per-CPU caches record under "cpu{i}.dcache"; a query
        # for "dcache" aggregates them so the analysis layer is agnostic
        # to how many CPUs produced the traffic.
        return sum(n for (c, r), n in counter.items()
                   if (cache is None or c == cache
                       or c.endswith("." + cache))
                   and (reason is None or r == reason))

    def snapshot(self) -> dict:
        """A plain-dict summary convenient for table rendering.

        Complete by construction: every scalar field, by name
        (:data:`SCALAR_FIELDS`), and every breakdown as its totals
        (assertion-tested), so a table built from a snapshot
        can never silently under-report a run — the protection-fault and
        fault-recovery counters used to be dropped here, hiding exactly
        the events chaos runs exist to count.
        """
        snap = {name: getattr(self, name) for name in SCALAR_FIELDS}
        snap.update(
            page_flushes=self.total_flushes(),
            page_purges=self.total_purges(),
            flush_cycles=self.total_flush_cycles(),
            purge_cycles=self.total_purge_cycles(),
            mapping_faults=self.faults[FaultKind.MAPPING],
            consistency_faults=self.faults[FaultKind.CONSISTENCY],
            protection_faults=self.faults[FaultKind.PROTECTION],
            fault_cycles=sum(self.fault_cycles.values()))
        return snap


#: Every scalar field of :class:`Counters`, in declaration order: what
#: :meth:`Counters.snapshot` and the metrics export
#: (:mod:`repro.obs.export`) carry one-to-one, so a new counter reaches
#: both without a hand-kept list.
SCALAR_FIELDS = tuple(f.name for f in fields(Counters)
                      if isinstance(f.default, int))
