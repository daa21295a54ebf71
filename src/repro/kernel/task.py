"""Tasks: address-space lifecycle, anonymous memory, fork with
copy-on-write.

The operating system is "a more aggressive client of virtual memory
sharing primitives" than applications (Section 2.2): copy-on-write fork,
IPC page transfer and server shared pages all create the multiple-mapping
patterns the consistency model has to manage.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.vm.address_space import AddressSpace, PageDescriptor, PageKind
from repro.vm.prot import Prot
from repro.vm.vm_object import Backing, VMObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Task:
    """One Mach task: an address space plus kernel bookkeeping."""

    _names = itertools.count(1)

    def __init__(self, kernel: "Kernel", asid: int, name: str | None = None):
        self.kernel = kernel
        self.asid = asid
        self.name = name or f"task{next(self._names)}"
        shared_allocator = (kernel.global_va_allocator
                            if kernel.policy.global_address_space else None)
        self.space = AddressSpace(
            asid, kernel.machine.dcache.geo.num_cache_pages,
            shared_allocator=shared_allocator)
        self.alive = True

    # ---- memory allocation ------------------------------------------------------

    def allocate_anon(self, npages: int, vm_prot: Prot = Prot.READ_WRITE,
                      color: int | None = None) -> int:
        """Allocate zero-filled private memory; returns the first vpage.

        Pages materialize lazily: the first touch takes a mapping fault
        that zero-fills a frame (the Section 4.1 page-preparation path).
        """
        vm_object = VMObject(npages, Backing.ZERO_FILL)
        start = self.space.allocate_vpages(npages, color=color)
        for i in range(npages):
            self.space.map_page(start + i, PageDescriptor(
                PageKind.ANON, vm_object, i, vm_prot))
        return start

    def map_superpage(self, npages: int,
                      vm_prot: Prot = Prot.READ_WRITE) -> int:
        """Allocate a superpage region: ``npages`` physically contiguous
        frames mapped to an index-aligned virtual run; returns the first
        vpage.

        The region is materialized eagerly (a device buffer must exist
        before the device writes it) and its frames stay wired — they are
        not candidates for pageout.  Because both the frame run and the
        virtual run are consecutive and the bases align modulo the number
        of cache pages, every page satisfies
        ``vpage % ncp == ppage % ncp`` — the property a superpage-aware
        policy (VESPA) exploits; under the paper's policies the region is
        just ``npages`` ordinary mappings.
        """
        kernel = self.kernel
        frames = kernel.allocate_frame_run(npages)
        ncp = kernel.machine.dcache.geo.num_cache_pages
        start = self.space.allocate_vpages(npages, color=frames[0] % ncp)
        vm_object = VMObject(npages, Backing.ZERO_FILL)
        for i in range(npages):
            kernel.pmap.zero_fill_page(frames[i], ultimate_vpage=start + i)
            vm_object.establish(i, frames[i])
            self.space.map_page(start + i, PageDescriptor(
                PageKind.SHARED, vm_object, i, vm_prot))
        kernel.pmap.enter_superpage(self.asid, start, frames[0], npages,
                                    vm_prot)
        kernel.machine.counters.superpage_mappings += 1
        return start

    def map_shared(self, vm_object: VMObject, vm_prot: Prot,
                   fixed_vpage: int | None = None,
                   color: int | None = None) -> int:
        """Map an existing object's pages into this task, either at a fixed
        address (the old Unix-server behaviour) or at a VM-chosen address,
        optionally colored to align (Section 4.2)."""
        if self.kernel.policy.global_address_space:
            # One global address per object: every task maps it at the
            # same virtual page, so sharing always aligns (Section 2.1).
            if vm_object.global_base_vpage is None:
                vm_object.global_base_vpage = self.space.allocate_vpages(
                    vm_object.size_pages)
            start = vm_object.global_base_vpage
            existing = self.space.descriptor(start)
            if existing is not None:
                if existing.vm_object is not vm_object:
                    raise KernelError(
                        f"{self.name}: global address {start} claimed by "
                        f"another object")
                # Already mapped: in a single address space, sharing the
                # same object again is idempotent.
                return start
        elif fixed_vpage is not None:
            start = fixed_vpage
            for i in range(vm_object.size_pages):
                if (start + i) in self.space:
                    raise KernelError(
                        f"{self.name}: fixed mapping at vpage {start + i} "
                        f"collides with an existing mapping")
        else:
            start = self.space.allocate_vpages(vm_object.size_pages,
                                               color=color)
        for i in range(vm_object.size_pages):
            self.space.map_page(start + i, PageDescriptor(
                PageKind.SHARED, vm_object, i, vm_prot))
        return start

    def unmap(self, vpage: int, npages: int = 1) -> None:
        """Remove mappings; frames are released when their object dies."""
        for i in range(vpage, vpage + npages):
            if i in self.kernel.pmap.page_table(self.asid):
                self.kernel.pmap.remove(self.asid, i)
            descriptor = self.space.unmap_page(i)
            self.kernel.release_object_if_dead(descriptor.vm_object)

    # ---- access helpers (what user code does) -------------------------------------

    def va(self, vpage: int, offset: int = 0) -> int:
        return vpage * self.kernel.machine.page_size + offset

    def read(self, vpage: int, word: int = 0) -> int:
        return self.kernel.machine.read(self.asid, self.va(vpage, word * 4))

    def write(self, vpage: int, word: int, value: int) -> None:
        self.kernel.machine.write(self.asid, self.va(vpage, word * 4), value)

    def read_block(self, vpage: int, word: int, n_words: int):
        return self.kernel.machine.read_block(
            self.asid, self.va(vpage, word * 4), n_words)

    def write_block(self, vpage: int, word: int, values) -> None:
        self.kernel.machine.write_block(
            self.asid, self.va(vpage, word * 4), values)

    def ifetch(self, vpage: int, word: int = 0) -> int:
        return self.kernel.machine.ifetch(self.asid, self.va(vpage, word * 4))


def fork_task(kernel: "Kernel", parent: Task, name: str | None = None) -> Task:
    """Create a child task sharing the parent's memory copy-on-write.

    Both sides are marked ``cow``; existing writable translations in the
    parent are write-protected so the next store (on either side) faults
    and receives a private copy — the classic multiple-mapping technique
    the paper cites from [Young et al. 87].
    """
    child = kernel.create_task(name or f"{parent.name}-child")
    for vpage in parent.space.mapped_vpages():
        descriptor = parent.space.descriptor(vpage)
        if descriptor.kind is PageKind.SHARED:
            # Server channels and explicitly shared regions are not
            # inherited; the child re-establishes its own (the Unix server
            # attaches a fresh channel page to every process).
            continue
        if descriptor.kind is PageKind.TEXT:
            child.space.map_page(vpage, PageDescriptor(
                descriptor.kind, descriptor.vm_object, descriptor.obj_page,
                descriptor.vm_prot, cow=False))
            continue
        descriptor.cow = True
        child.space.map_page(vpage, PageDescriptor(
            descriptor.kind, descriptor.vm_object, descriptor.obj_page,
            descriptor.vm_prot, cow=True))
        pte = kernel.pmap.page_table(parent.asid).lookup(vpage)
        if pte is not None and pte.vm_prot.allows(Prot.WRITE):
            kernel.pmap.protect(parent.asid, vpage,
                                pte.vm_prot & ~Prot.WRITE)
    return child
