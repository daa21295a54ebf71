"""Per-physical-page consistency state (Table 3) and the mapping list.

Each resident physical page ``p`` is represented by a structure holding:

* ``mappings`` — the list of virtual mappings for the page,
* ``mapped`` — a bit vector with one bit per cache page, indicating which
  cache pages may contain data from ``p``,
* ``stale`` — a bit vector indicating which cache pages may contain
  *stale* data from ``p``,
* ``cache_dirty`` — a single bit: the page may be dirty within a cache
  page; that cache page is the (unique) one whose ``mapped`` bit is set.

The decoding into the four consistency states follows Table 3:

====================  ==========  =========  ============
Cache page state       mapped[c]   stale[c]   cache_dirty
====================  ==========  =========  ============
Empty                  false       false      —
Present                true        false      false
Dirty                  true        false      true
Stale                  false       true       —
====================  ==========  =========  ============

State exists only for physically resident pages; the virtual memory
system already denies access to non-resident ones (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitvector import BitVector
from repro.core.states import LineState
from repro.errors import ReproError


@dataclass
class Mapping:
    """One virtual mapping of a physical page.

    ``modified`` mirrors the hardware page-modified bit: the paper's
    implementation "sets P[p].cache_dirty whenever the virtual memory
    system sets the page-modified bit yet the number of mapped bits is
    one" (Section 4.1), avoiding a write fault on every re-dirtying of a
    page whose mapping is already writable.
    """

    asid: int
    vpage: int
    modified: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.asid, self.vpage)


class PhysPageState:
    """Consistency bookkeeping for one physical page frame."""

    def __init__(self, ppage: int, num_cache_pages: int,
                 num_icache_pages: int | None = None):
        self.ppage = ppage
        self.num_cache_pages = num_cache_pages
        self.mapped = BitVector(num_cache_pages)
        self.stale = BitVector(num_cache_pages)
        self.cache_dirty = False
        self.mappings: list[Mapping] = []
        # Separate state for the instruction cache (Section 4.1: "it is
        # necessary to maintain cache page state for both caches").  The
        # icache never holds dirty data, so two bit vectors suffice.
        ni = num_icache_pages if num_icache_pages is not None else num_cache_pages
        self.imapped = BitVector(ni)
        self.istale = BitVector(ni)
        # Cache page and virtual page of the most recent mapping, kept
        # across unmaps so a new mapping (or the free-list allocator) can
        # align with it; ``last_vpage`` also supports the Tut emulation,
        # which keeps consistency state per virtual address.
        self.last_cache_page: int | None = None
        self.last_vpage: int | None = None
        # The frame is accessed uncached (Sun-style alias handling): no
        # cache state exists while this is set.
        self.uncached = False
        # The frame backs a superpage region (physically contiguous,
        # index-aligned): its cache index is physically determined, so a
        # superpage-aware policy (VESPA) can skip alias management.
        self.superpage = False
        # On a physically indexed cache every virtual address of this
        # frame selects the same cache page (derived from the physical
        # page), so all aliases align by construction (Section 3.3).
        # The two caches may be indexed differently; track them apart.
        self.pa_indexed = False
        self.ipa_indexed = False

    # ---- decoding (Table 3) --------------------------------------------------

    def decode(self, cache_page: int) -> LineState:
        """The consistency state of ``cache_page`` with respect to this
        physical page, per Table 3."""
        if self.stale[cache_page]:
            return LineState.STALE
        if not self.mapped[cache_page]:
            return LineState.EMPTY
        if self.cache_dirty and self.find_mapped_cache_page() == cache_page:
            return LineState.DIRTY
        return LineState.PRESENT

    def find_mapped_cache_page(self) -> int:
        """The cache page holding this page's (unique) dirty data.

        Mirrors the paper's ``find_mapped_cache_page``; meaningful when
        ``cache_dirty`` is set, in which case exactly one mapped bit is on.
        """
        first = self.mapped.first()
        if first is None:
            raise ReproError(
                f"find_mapped_cache_page on frame {self.ppage} with no "
                f"mapped cache page")
        return first

    # ---- invariants -------------------------------------------------------------

    def validate(self) -> None:
        """Raise if the encoding violates its structural invariants."""
        for c in range(self.num_cache_pages):
            if self.mapped[c] and self.stale[c]:
                raise ReproError(
                    f"frame {self.ppage}: cache page {c} both mapped and stale")
        if self.cache_dirty and self.mapped.count() != 1:
            raise ReproError(
                f"frame {self.ppage}: cache_dirty with "
                f"{self.mapped.count()} mapped cache pages (must be 1)")

    # ---- mapping list ---------------------------------------------------------

    def add_mapping(self, asid: int, vpage: int) -> Mapping:
        existing = self.find_mapping(asid, vpage)
        if existing is not None:
            return existing
        mapping = Mapping(asid, vpage)
        self.mappings.append(mapping)
        return mapping

    def remove_mapping(self, asid: int, vpage: int) -> Mapping | None:
        mapping = self.find_mapping(asid, vpage)
        if mapping is not None:
            self.mappings.remove(mapping)
        return mapping

    def find_mapping(self, asid: int, vpage: int) -> Mapping | None:
        for mapping in self.mappings:
            if mapping.asid == asid and mapping.vpage == vpage:
                return mapping
        return None

    def cache_page_of(self, vpage: int) -> int:
        if self.pa_indexed:
            return self.ppage % self.num_cache_pages
        return vpage % self.num_cache_pages

    def icache_page_of(self, vpage: int) -> int:
        if self.ipa_indexed:
            return self.ppage % self.imapped.width
        return vpage % self.imapped.width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = "".join(str(self.decode(c))
                         for c in range(self.num_cache_pages))
        return (f"PhysPageState(p={self.ppage}, states={states}, "
                f"dirty={self.cache_dirty}, mappings={len(self.mappings)})")
