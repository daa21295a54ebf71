"""Per-address-space page tables.

A page-table entry carries two protections (see :mod:`repro.vm.prot`): the
VM protection granted by the operating system and the consistency
protection installed by the cache-control algorithm.  The hardware (the
TLB fill path) sees their intersection, with the EXEC right governed by
the VM protection alone — instruction-cache consistency is enforced
eagerly at text installation and DMA time rather than through protection
traps (Section 4.1 notes data and instruction addresses never align).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.vm.prot import Prot

#: every protection value, indexed by its int value.
_PROT_OF = tuple(Prot(v) for v in range(int(Prot.ALL) + 1))
_EXEC = int(Prot.EXEC)


@dataclass
class PageTableEntry:
    """One installed virtual-to-physical translation.

    ``uncached`` routes accesses around the cache entirely — the Sun
    system's treatment of unaligned aliases (Section 6).  ``superpage``
    marks a translation that belongs to a physically contiguous,
    index-aligned superpage region (see ``Pmap.enter_superpage``); a
    superpage-aware policy never revokes its cache protection.
    """

    ppage: int
    vm_prot: Prot
    cache_prot: Prot = Prot.READ_WRITE
    uncached: bool = False
    superpage: bool = False

    @property
    def effective_prot(self) -> Prot:
        """What the hardware enforces: the intersection of the VM and
        consistency protections, with EXEC passed through from the VM
        side.

        Computed on plain ints and looked up in :data:`_PROT_OF`: every
        TLB refill reads it, and ``IntFlag``'s ``&``/``|`` would build
        the value through several Python-level enum calls.
        """
        return _PROT_OF[int(self.vm_prot)
                        & (int(self.cache_prot) | _EXEC)]


class PageTable:
    """Translations for one address space (one asid)."""

    def __init__(self, asid: int):
        self.asid = asid
        self._entries: dict[int, PageTableEntry] = {}

    def lookup(self, vpage: int) -> PageTableEntry | None:
        return self._entries.get(vpage)

    def enter(self, vpage: int, ppage: int, vm_prot: Prot,
              cache_prot: Prot = Prot.READ_WRITE) -> PageTableEntry:
        if vpage in self._entries:
            raise KernelError(
                f"asid {self.asid}: vpage {vpage} already has a translation")
        pte = PageTableEntry(ppage, vm_prot, cache_prot)
        self._entries[vpage] = pte
        return pte

    def remove(self, vpage: int) -> PageTableEntry:
        try:
            return self._entries.pop(vpage)
        except KeyError:
            raise KernelError(
                f"asid {self.asid}: vpage {vpage} has no translation") from None

    def entries(self) -> dict[int, PageTableEntry]:
        return dict(self._entries)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._entries

    def __len__(self) -> int:
        return len(self._entries)
