"""Task address spaces: the hierarchical Mach model (Section 2.1).

Each task runs in its own address space; memory can be shared between
tasks with no requirement that it be shared at the same virtual address —
which is exactly what creates unaligned aliases on a virtually indexed
cache.  The address allocator therefore supports two strategies:

* **first-fit** — the original Mach behaviour: the next free virtual page,
  with no regard for the cache index function (source and destination of
  an IPC transfer "rarely aligned", Section 4.2);
* **aligned** — pick the next free virtual page whose cache page matches a
  requested color, so a remapped physical page aligns with its previous
  (or preparatory) mapping and needs no consistency management.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import KernelError
from repro.vm.prot import Prot
from repro.vm.vm_object import VMObject


class PageKind(enum.Enum):
    """What a mapped page is, for bookkeeping and fault resolution."""

    ANON = "anon"          # zero-filled private data (heap, stack, bss)
    FILE = "file"          # file-backed data mapping
    TEXT = "text"          # program text; faults go to the exec loader
    SHARED = "shared"      # memory explicitly shared between tasks
    IPC = "ipc"            # page received through an IPC transfer


@dataclass
class PageDescriptor:
    """The machine-independent description of one mapped virtual page."""

    kind: PageKind
    vm_object: VMObject
    obj_page: int
    vm_prot: Prot
    cow: bool = False


class AddressSpace:
    """Page-granularity virtual address space of one task.

    With ``shared_allocator`` set, virtual addresses come from a single
    system-wide allocator instead of the per-space first-fit search: the
    Section 2.1 global-address-space model, where "memory is shared at
    the same address in all processes", which "eliminates consistency
    problems due to sharing" (but not those of new mappings or DMA).
    """

    def __init__(self, asid: int, num_cache_pages: int,
                 first_vpage: int = 16, max_vpage: int = 1 << 20,
                 shared_allocator=None):
        self.asid = asid
        self.num_cache_pages = num_cache_pages
        self._pages: dict[int, PageDescriptor] = {}
        self._first_vpage = first_vpage
        # The lowest page that may be free: every page from first_vpage
        # up to it is mapped, so every search starts here.
        self._low = first_vpage
        self._max_vpage = max_vpage
        self._shared_allocator = shared_allocator

    # ---- virtual address allocation ------------------------------------------

    def allocate_vpages(self, npages: int = 1,
                        color: int | None = None) -> int:
        """Reserve ``npages`` consecutive unmapped virtual pages.

        With ``color`` set, the first page is placed so that its cache page
        equals ``color`` (the aligned strategy); otherwise the lowest free
        range is used (first-fit, reusing freed addresses — as Mach's
        anywhere-allocation did).  Returns the first virtual page number.
        """
        if npages <= 0:
            raise KernelError("must allocate at least one page")
        if self._shared_allocator is not None:
            return self._shared_allocator(npages)
        first = self._first_vpage
        start = self._low
        step = 1
        if color is not None:
            step = self.num_cache_pages
            first += (color - first) % step
            start += (color - start) % step
        pages = self._pages
        # A candidate's first page decides most probes with one dict
        # test; only a multi-page request looks at the rest of its range.
        while start in pages or (npages > 1 and not self._range_free(
                start + 1, npages - 1)):
            start += step
        # The first candidate is returned even if it overhangs the end.
        if start != first and start + npages > self._max_vpage:
            raise KernelError(f"asid {self.asid}: address space exhausted")
        return start

    def _range_free(self, start: int, npages: int) -> bool:
        return all(start + i not in self._pages for i in range(npages))

    # ---- mapping bookkeeping ---------------------------------------------------

    def map_page(self, vpage: int, descriptor: PageDescriptor) -> None:
        if vpage in self._pages:
            raise KernelError(f"asid {self.asid}: vpage {vpage} already mapped")
        descriptor.vm_object.reference()
        self._pages[vpage] = descriptor
        if vpage == self._low:
            low = vpage + 1
            while low in self._pages:
                low += 1
            self._low = low

    def unmap_page(self, vpage: int) -> PageDescriptor:
        try:
            descriptor = self._pages.pop(vpage)
        except KeyError:
            raise KernelError(
                f"asid {self.asid}: vpage {vpage} not mapped") from None
        descriptor.vm_object.dereference()
        if self._first_vpage <= vpage < self._low:
            self._low = vpage
        return descriptor

    def descriptor(self, vpage: int) -> PageDescriptor | None:
        return self._pages.get(vpage)

    def mapped_vpages(self) -> list[int]:
        return sorted(self._pages)

    def cache_page_of(self, vpage: int) -> int:
        return vpage % self.num_cache_pages

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._pages
