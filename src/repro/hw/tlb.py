"""A software-managed translation lookaside buffer.

The TLB caches page-table entries: (address-space id, virtual page) ->
(physical page, effective protection).  The consistency algorithm depends
on being able to *revoke* access to a page (Section 2.3: "other structures,
however, such as TLB and page table entries, must be invalidated to deny
access to the data in the memory system"), so the machine-dependent layer
invalidates TLB entries whenever it changes a mapping or its protection.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.hw.params import CostModel
from repro.hw.stats import Clock, Counters
from repro.prot import Prot


@dataclass(frozen=True)
class TlbEntry:
    """A cached translation with its effective protection.

    ``uncached`` marks a mapping whose accesses bypass the cache entirely
    — the Sun system's fallback for unaligned aliases outside
    well-behaved kernel code (Section 6: "Otherwise, aliases must be
    uncached").

    ``rights`` is ``prot`` as a plain ``int``, computed once when the
    entry is built: the translate path checks
    ``rights & access.need == access.need`` on every access, which plain
    ints answer without the ``IntFlag`` operator calls.
    """

    ppage: int
    prot: Prot
    uncached: bool = False
    rights: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rights", int(self.prot))


class Tlb:
    """Fully associative TLB with FIFO replacement.

    Replacement policy is deliberately simple: the evaluation depends on
    TLB *invalidation semantics*, not on TLB hit rates.
    """

    def __init__(self, entries: int, cost: CostModel, clock: Clock,
                 counters: Counters):
        self.capacity = entries
        self.cost = cost
        self.clock = clock
        self.counters = counters
        # Optional fault injector ("tlb.entry.corrupt"); None in normal runs.
        self.injector = None
        # Observability: the machine attaches its EventBus here.  Only the
        # parity-recovery path publishes — never the lookup fast paths.
        self.bus = None
        self._map: OrderedDict[tuple[int, int], TlbEntry] = OrderedDict()
        # One-entry micro-cache over the last successful lookup.  Every
        # mutator clears it, so a micro-hit implies the entry is still
        # present in ``_map`` — the accounting must stay identical to a
        # regular hit.
        self._last_key: tuple[int, int] | None = None
        self._last_entry: TlbEntry | None = None

    def lookup(self, asid: int, vpage: int) -> TlbEntry | None:
        """Return the cached entry, or None on a TLB miss."""
        key = (asid, vpage)
        if (self.injector is not None
                and (key == self._last_key or key in self._map)):
            record = self.injector.fires("tlb.entry.corrupt", asid=asid,
                                         vpage=vpage)
            if record is not None:
                # The entry's parity no longer checks: hardware discards
                # it and the walk refills from the page tables — detected
                # and recovered on the spot, with the recovery charged.
                self.invalidate(asid, vpage)
                self.counters.tlb_parity_recoveries += 1
                self.counters.tlb_misses += 1
                self.clock.advance(self.cost.tlb_parity_recovery
                                   + self.cost.tlb_miss)
                record.resolve("recovered")
                if self.bus is not None and self.bus.enabled:
                    self.bus.publish("tlb-parity-recovery", asid=asid,
                                     vpage=vpage)
                return None
        if key == self._last_key:
            self.counters.tlb_hits += 1
            self.clock.cycles += self.cost.tlb_hit
            return self._last_entry
        entry = self._map.get(key)
        if entry is not None:
            self.counters.tlb_hits += 1
            self.clock.advance(self.cost.tlb_hit)
            self._last_key = key
            self._last_entry = entry
        else:
            self.counters.tlb_misses += 1
            self.clock.advance(self.cost.tlb_miss)
        return entry

    def note_repeat_hits(self, n: int) -> None:
        """Account for ``n`` TLB hits without performing lookups.

        The block access path translates once per page segment and uses
        this to charge the hits the equivalent word loop would have taken
        for the remaining words of the segment.
        """
        if n <= 0:
            return
        self.counters.tlb_hits += n
        # Direct add, like the micro-cache hit path: this runs once per
        # page segment of every block access.
        self.clock.cycles += self.cost.tlb_hit * n

    def insert(self, asid: int, vpage: int, ppage: int, prot: Prot,
               uncached: bool = False) -> None:
        key = (asid, vpage)
        if key in self._map:
            del self._map[key]
        elif len(self._map) >= self.capacity:
            self._map.popitem(last=False)
        self._map[key] = TlbEntry(ppage, prot, uncached)
        self._last_key = None
        self._last_entry = None

    def invalidate(self, asid: int, vpage: int) -> None:
        self._map.pop((asid, vpage), None)
        self._last_key = None
        self._last_entry = None

    def invalidate_asid(self, asid: int) -> None:
        for key in [k for k in self._map if k[0] == asid]:
            del self._map[key]
        self._last_key = None
        self._last_entry = None

    def invalidate_all(self) -> None:
        self._map.clear()
        self._last_key = None
        self._last_entry = None

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._map
