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
from collections.abc import Mapping
from dataclasses import dataclass, fields


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


# ``index``, a member's position in declaration order, is its slot in a
# tally (for a Reason, ``format.REASON_INDEX``, fixed by the trace format).
# A plain attribute: ``record_*`` reads it on every call, where hashing
# the member would go through Enum.__hash__.
for _kind in (Reason, FaultKind):
    for _index, _member in enumerate(_kind):
        _member.index = _index

N_REASONS = len(Reason)
N_KINDS = len(FaultKind)
#: Where each breakdown lives: the fault breakdowns at these offsets in
#: :attr:`Counters.fault_tally`, a cache's four at these offsets from its
#: row in :attr:`Counters.cache_tally` (see :meth:`Counters.row`).
KIND_OFFSETS = {"faults": 0, "fault_cycles": N_KINDS}
PAIR_OFFSETS = {"page_flushes": 0, "page_purges": N_REASONS,
                "flush_cycles": 2 * N_REASONS, "purge_cycles": 3 * N_REASONS}
#: the six breakdowns, by name
BREAKDOWNS = tuple(PAIR_OFFSETS) + tuple(KIND_OFFSETS)
_CYCLES = PAIR_OFFSETS["flush_cycles"]     # from a row's count slot


class Breakdown(Mapping):
    """One breakdown of a :class:`Counters`' tallies, read-only, with
    ``Counter`` semantics: a missing key reads 0 and a key is present
    while its tally is nonzero.  Its keys are ``(cache name, Reason)``
    pairs, or ``FaultKind`` members.  There is no way to write through
    it."""

    __slots__ = ("_counters", "_offset", "_pairs")

    def __init__(self, counters: "Counters", offset: int, pairs: bool):
        self._counters, self._offset, self._pairs = counters, offset, pairs

    def __getitem__(self, key) -> int:
        counters = self._counters
        if not self._pairs:
            return counters.fault_tally[self._offset + key.index]
        cache, reason = key
        base = counters.rows.get(cache)
        if base is None:
            return 0
        return counters.cache_tally[base + self._offset + reason.index]

    def __iter__(self):
        counters, offset = self._counters, self._offset
        if not self._pairs:
            return (kind for kind in FaultKind
                    if counters.fault_tally[offset + kind.index])
        tally = counters.cache_tally
        return ((cache, reason) for cache, base in counters.rows.items()
                for reason in Reason if tally[base + offset + reason.index])

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, key) -> bool:
        return any(k == key for k in self)

    def copy(self) -> Counter:
        return Counter(self)


def _view(name: str) -> property:
    pairs = name in PAIR_OFFSETS
    offset = PAIR_OFFSETS[name] if pairs else KIND_OFFSETS[name]
    return property(lambda self: Breakdown(self, offset, pairs))


@dataclass(eq=False)
class Counters:
    """Mutable event counters with cycle attribution.

    One instance is shared by the machine, its caches, the DMA engine and
    the kernel so that a single object describes a whole run.

    The six breakdowns (flushes and purges by cache and :class:`Reason`,
    faults by :class:`FaultKind`, each as a count and as cycles) are
    fixed-index integer tallies, :attr:`fault_tally` and one row per
    cache name in :attr:`cache_tally`.  ``record_*`` are their writers;
    ``page_flushes[(cache, reason)]``, ``faults[kind]`` and the rest are
    read-only :class:`Breakdown` views.
    """

    # cache traffic
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    write_backs: int = 0

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

    # cache management, per cache name ("dcache"/"icache") and reason
    page_flushes = _view("page_flushes")   # (cache, Reason) -> n
    page_purges = _view("page_purges")     # (cache, Reason) -> n
    flush_cycles = _view("flush_cycles")   # (cache, Reason) -> cycles
    purge_cycles = _view("purge_cycles")   # (cache, Reason) -> cycles

    # faults
    faults = _view("faults")               # FaultKind -> n
    fault_cycles = _view("fault_cycles")   # FaultKind -> cycles

    def __post_init__(self) -> None:
        self.fault_tally: list[int] = [0] * (2 * N_KINDS)
        self.cache_tally: list[int] = []
        self.rows: dict[str, int] = {}   # cache name -> its row

    def __eq__(self, other):
        if type(other) is not Counters:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in SCALAR_FIELDS + BREAKDOWNS)

    def __repr__(self) -> str:
        return (f"Counters(reads={self.read_hits}h/{self.read_misses}m, "
                f"writes={self.write_hits}h/{self.write_misses}m, "
                f"write_backs={self.write_backs}, "
                f"tlb={self.tlb_hits}h/{self.tlb_misses}m, "
                f"flushes={self.total_flushes()}, "
                f"purges={self.total_purges()}, "
                f"faults={sum(self.faults.values())})")

    def row(self, cache: str) -> int:
        """The start of ``cache``'s row in :attr:`cache_tally`, registering
        the row on first use."""
        base = self.rows.get(cache)
        if base is None:
            base = self.rows[cache] = len(self.cache_tally)
            self.cache_tally.extend([0] * (4 * N_REASONS))
        return base

    def record_flush(self, cache: str, reason: Reason, cycles: int) -> None:
        slot = self.row(cache) + reason.index
        tally = self.cache_tally
        tally[slot] += 1
        tally[slot + _CYCLES] += cycles

    def record_purge(self, cache: str, reason: Reason, cycles: int) -> None:
        slot = self.row(cache) + N_REASONS + reason.index
        tally = self.cache_tally
        tally[slot] += 1
        tally[slot + _CYCLES] += cycles

    def record_fault(self, kind: FaultKind, cycles: int) -> None:
        tally = self.fault_tally
        tally[kind.index] += 1
        tally[kind.index + N_KINDS] += cycles

    # ---- aggregation helpers used by the analysis layer -------------------

    def total_flushes(self, cache: str | None = None,
                      reason: Reason | None = None) -> int:
        return self._total(PAIR_OFFSETS["page_flushes"], cache, reason)

    def total_purges(self, cache: str | None = None,
                     reason: Reason | None = None) -> int:
        return self._total(PAIR_OFFSETS["page_purges"], cache, reason)

    def total_flush_cycles(self, cache: str | None = None,
                           reason: Reason | None = None) -> int:
        return self._total(PAIR_OFFSETS["flush_cycles"], cache, reason)

    def total_purge_cycles(self, cache: str | None = None,
                           reason: Reason | None = None) -> int:
        return self._total(PAIR_OFFSETS["purge_cycles"], cache, reason)

    def _total(self, offset: int, cache: str | None,
               reason: Reason | None) -> int:
        # A cluster's per-CPU caches record under "cpu{i}.dcache"; a query
        # for "dcache" aggregates them so the analysis layer is agnostic
        # to how many CPUs produced the traffic.
        slots = range(N_REASONS) if reason is None else (reason.index,)
        return sum(self.cache_tally[base + offset + i]
                   for name, base in self.rows.items()
                   if cache is None or name == cache
                   or name.endswith("." + cache) for i in slots)

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
        tally = self.fault_tally
        snap.update(
            page_flushes=self.total_flushes(),
            page_purges=self.total_purges(),
            flush_cycles=self.total_flush_cycles(),
            purge_cycles=self.total_purge_cycles(),
            mapping_faults=tally[FaultKind.MAPPING.index],
            consistency_faults=tally[FaultKind.CONSISTENCY.index],
            protection_faults=tally[FaultKind.PROTECTION.index],
            fault_cycles=sum(tally[N_KINDS:2 * N_KINDS]))
        return snap


#: Every scalar field of :class:`Counters`, in declaration order: what
#: :meth:`Counters.snapshot` and the metrics export
#: (:mod:`repro.obs.export`) carry one-to-one, so a new counter reaches
#: both without a hand-kept list.
SCALAR_FIELDS = tuple(f.name for f in fields(Counters))
