"""IPC page transfer: moving a physical page between address spaces.

"A large number of virtual memory remapping operations correspond to
physical pages being passed as part of interprocess communication
messages.  The kernel's IPC code transfers a physical page from one
virtual address to another ... The kernel is free to select any
destination virtual address, so choosing one that aligns with the source
address guarantees that no cache management operation is necessary."
(Section 4.2.)

Under the original first-fit selection the source and destination rarely
align, so the old address is flushed (it is generally dirty — it holds the
sender's data) and the new address purged.  The ``align_ipc`` policy flag
switches the destination selection to the aligned strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.vm.address_space import PageDescriptor, PageKind
from repro.vm.prot import Prot

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


def transfer_page(kernel: "Kernel", src_task: "Task", src_vpage: int,
                  dst_task: "Task") -> int:
    """Move one mapped page from ``src_task`` to ``dst_task``.

    Returns the destination virtual page, which the receiver maps
    read-write.  The physical page is not copied; it is remapped, which
    is precisely the operation that creates the "new mapping"
    consistency problem of Section 2.3.
    """
    descriptor = src_task.space.descriptor(src_vpage)
    if descriptor is None:
        raise KernelError(
            f"IPC: {src_task.name} has nothing mapped at vpage {src_vpage}")

    if kernel.policy.global_address_space:
        # One global address space: the page keeps its address, so the
        # transfer is trivially aligned (Section 2.1).
        dst_vpage = src_vpage
    else:
        color = None
        if kernel.policy.align_ipc:
            color = src_task.space.cache_page_of(src_vpage)
        dst_vpage = dst_task.space.allocate_vpages(1, color=color)

    # Map into the receiver first so the object stays referenced, then
    # tear down the sender side (lazily under the new system: only the
    # translation goes; the cache keeps the data for an aligned reuse).
    dst_task.space.map_page(dst_vpage, PageDescriptor(
        PageKind.IPC, descriptor.vm_object, descriptor.obj_page,
        Prot.READ_WRITE))
    if src_vpage in kernel.pmap.page_table(src_task.asid):
        kernel.pmap.remove(src_task.asid, src_vpage)
    src_task.space.unmap_page(src_vpage)
    kernel.machine.counters.ipc_page_moves += 1
    return dst_vpage
