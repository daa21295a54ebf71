"""The kernel: machine + VM + services, with the fault dispatcher.

This facade wires the simulated hardware to the machine-dependent pmap
layer and the OS services (disk, buffer cache, file system, exec loader,
Unix server), and classifies faults the way Section 5.1 counts them:

* **mapping faults** — a virtual page's first access by an address space
  (lazy PTE creation), copy-on-write resolution, text loading.  These
  "occur regardless of the cache architecture".
* **consistency faults** — a reference requiring a cache consistency
  state transition that cannot be inferred from some other mapping fault.
  These exist only because the cache is virtually indexed and are counted
  as bookkeeping overhead.
"""

from __future__ import annotations

import itertools

from repro.errors import KernelError, ProtectionError
from repro.hw.machine import FaultInfo, Machine
from repro.hw.params import MachineConfig
from repro.hw.stats import FaultKind
from repro.kernel.buffer_cache import BufferCache
from repro.kernel.disk import Disk
from repro.kernel.exec_loader import ExecLoader
from repro.kernel.filesystem import FileSystem
from repro.kernel.pageout import PageoutDaemon
from repro.kernel.task import Task
from repro.kernel.unix_server import UnixServer
from repro.policy import ConsistencyPolicy, resolve as resolve_policy
from repro.vm.address_space import PageDescriptor, PageKind
from repro.vm.free_list import FreePageList
from repro.vm.pmap import Pmap
from repro.vm.policy import NEW_SYSTEM, PolicyConfig
from repro.vm.prot import AccessKind, Prot
from repro.vm.vm_object import Backing, VMObject


class Kernel:
    """One booted instance of the simulated system."""

    def __init__(self,
                 policy: PolicyConfig | ConsistencyPolicy | str = NEW_SYSTEM,
                 config: MachineConfig | None = None,
                 buffer_cache_pages: int = 64,
                 with_unix_server: bool = True):
        # ``policy`` accepts a registered name ("F", "rlt"), a
        # ConsistencyPolicy, or a bare PolicyConfig (the seed-era API).
        # ``self.cpolicy`` is the hook object the pmap consults;
        # ``self.policy`` stays the flag bag every flag consumer reads.
        self.cpolicy = resolve_policy(policy)
        self.policy = self.cpolicy.flags
        self.machine = Machine(config or MachineConfig())
        self.pmap = Pmap(self.machine, self.cpolicy)
        ncp = self.machine.dcache.geo.num_cache_pages
        self.free_list = FreePageList(range(self.machine.config.phys_pages),
                                      ncp,
                                      colored=self.policy.colored_free_list)
        self.tasks: dict[int, Task] = {}
        self._asids = itertools.count(1)
        self._global_va_cursor = itertools.count(16)
        self.machine.fault_handler = self.handle_fault
        # Optional fault injector (kernel.fault.stall); None in normal runs.
        self.fault_injector = None
        # Frames retired after failing DMA transfer verification; never
        # returned to the free list.
        self.quarantined: set[int] = set()

        self.disk = Disk(self)
        self.pageout = PageoutDaemon(self)
        self.buffer_cache = BufferCache(self, capacity_pages=buffer_cache_pages)
        self.fs = FileSystem(self)
        self.exec_loader = ExecLoader(self)
        self.unix_server = UnixServer(self) if with_unix_server else None

    def global_va_allocator(self, npages: int) -> int:
        """System-wide unique virtual addresses for the Section 2.1
        global-address-space model: every allocation anywhere draws from
        one counter, so an address names the same memory in every task."""
        start = next(self._global_va_cursor)
        for _ in range(npages - 1):
            next(self._global_va_cursor)
        return start

    # ---- frames -----------------------------------------------------------------

    def allocate_frame(self, color: int | None = None) -> int:
        if len(self.free_list) < self.pageout.low_water:
            self.pageout.maybe_reclaim()
        return self.free_list.allocate(color)

    def allocate_frame_run(self, npages: int) -> list[int]:
        """Allocate ``npages`` physically contiguous frames (superpage
        backing).  Reclaims once under memory pressure, like
        :meth:`allocate_frame`."""
        if len(self.free_list) < max(self.pageout.low_water, npages):
            self.pageout.maybe_reclaim()
        return self.free_list.allocate_run(npages)

    def free_frame(self, ppage: int) -> None:
        if ppage in self.quarantined:
            return  # retired hardware never re-enters circulation
        color = self.pmap.frame_freed(ppage)
        self.free_list.free(ppage, color)

    def quarantine_frame(self, ppage: int) -> None:
        """Retire a frame that repeatedly failed DMA transfer verification
        (suspected bad hardware).  Its cached traces are discarded and it
        is never allocated again."""
        self.pmap.quarantine_frame(ppage)
        self.quarantined.add(ppage)
        self.machine.counters.frames_quarantined += 1

    def release_object_if_dead(self, vm_object: VMObject) -> None:
        """Free a VM object's frames once nothing references it."""
        if vm_object.ref_count > 0:
            return
        for obj_page, ppage in list(vm_object.resident_pages().items()):
            vm_object.evict(obj_page)
            self.free_frame(ppage)

    # ---- tasks -------------------------------------------------------------------

    def create_task(self, name: str | None = None,
                    cpu: int | None = None) -> Task:
        asid = next(self._asids)
        # Deterministic round-robin placement unless the caller pins the
        # task; asid 1 (the Unix server) lands on CPU 0.  The binding
        # validates the CPU before the task is registered.
        if cpu is None:
            cpu = (asid - 1) % self.machine.config.n_cpus
        self.machine.bind_cpu(asid, cpu)
        task = self.tasks[asid] = Task(self, asid, name)
        return task

    def destroy_task(self, task: Task) -> None:
        for vpage in task.space.mapped_vpages():
            task.unmap(vpage)
        self.pmap.destroy_page_table(task.asid)
        self.tasks.pop(task.asid, None)
        task.alive = False

    # ---- the fault dispatcher -------------------------------------------------------

    def _publish_fault(self, fault: FaultInfo, classified: str) -> None:
        bus = self.machine.bus
        if bus is not None and bus.enabled:
            bus.publish("fault", asid=fault.asid,
                        vpage=fault.vaddr // self.machine.page_size,
                        access=fault.access.value, classified=classified)

    def handle_fault(self, fault: FaultInfo) -> None:
        cost = self.machine.config.cost.fault_overhead
        self.machine.clock.advance(cost)
        if self.fault_injector is not None:
            record = self.fault_injector.fires("kernel.fault.stall",
                                               asid=fault.asid,
                                               vaddr=fault.vaddr)
            if record is not None:
                # The handler makes no progress this pass; the hardware
                # retry loop re-faults (absorbing a bounded stall) or
                # escalates to FaultLoopError with full diagnostics.
                record.resolve("retried")
                self._publish_fault(fault, "stalled")
                return
        vpage = fault.vaddr // self.machine.page_size
        task = self.tasks.get(fault.asid)
        if task is None:
            raise KernelError(f"fault in unknown asid {fault.asid}")
        descriptor = task.space.descriptor(vpage)
        if descriptor is None:
            self.machine.counters.record_fault(FaultKind.PROTECTION, cost)
            self._publish_fault(fault, "protection")
            raise ProtectionError(
                f"{task.name}: segmentation fault at va "
                f"{fault.vaddr:#x} ({fault.access.value})")
        pte = self.pmap.page_table(fault.asid).lookup(vpage)
        needed = fault.access.required

        if pte is not None:
            if not pte.vm_prot.allows(needed):
                if (descriptor.cow and fault.access is AccessKind.WRITE
                        and descriptor.vm_prot.allows(Prot.WRITE)):
                    self.machine.counters.record_fault(FaultKind.MAPPING, cost)
                    self._publish_fault(fault, "mapping")
                    self._resolve_cow(task, vpage, descriptor)
                    return
                self.machine.counters.record_fault(FaultKind.PROTECTION, cost)
                self._publish_fault(fault, "protection")
                raise ProtectionError(
                    f"{task.name}: {fault.access.value} of va "
                    f"{fault.vaddr:#x} violates VM protection {pte.vm_prot}")
            # The VM protection allows the access but the hardware denied
            # it: the consistency protection is in the way.
            self.machine.counters.record_fault(FaultKind.CONSISTENCY, cost)
            self._publish_fault(fault, "consistency")
            self.pmap.consistency_fault(fault.asid, vpage, fault.access)
            return

        self.machine.counters.record_fault(FaultKind.MAPPING, cost)
        self._publish_fault(fault, "mapping")
        self._resolve_mapping_fault(task, vpage, descriptor, fault.access)

    # ---- fault resolution -----------------------------------------------------------

    def _resolve_mapping_fault(self, task: Task, vpage: int,
                               descriptor: PageDescriptor,
                               access: AccessKind) -> None:
        if descriptor.kind is PageKind.TEXT:
            self.exec_loader.text_fault(task, vpage, descriptor)
            return
        if descriptor.cow and access is AccessKind.WRITE:
            self._resolve_cow(task, vpage, descriptor)
            return
        vm_object = descriptor.vm_object
        frame = vm_object.resident_page(descriptor.obj_page)
        if frame is None:
            frame = self._page_in(vm_object, descriptor.obj_page, vpage)
        vm_prot = descriptor.vm_prot
        if descriptor.cow:
            vm_prot &= ~Prot.WRITE
        self.pmap.enter(task.asid, vpage, frame, vm_prot, access)

    def _resolve_cow(self, task: Task, vpage: int,
                     descriptor: PageDescriptor) -> None:
        """Give the writer a private copy of a copy-on-write page."""
        vm_object = descriptor.vm_object
        src_frame = vm_object.resident_page(descriptor.obj_page)
        if vpage in self.pmap.page_table(task.asid):
            self.pmap.remove(task.asid, vpage)
        private = VMObject(1, Backing.ZERO_FILL)
        never_materialized = (src_frame is None
                              and descriptor.obj_page not in vm_object.swap_slots
                              and vm_object.backing is Backing.ZERO_FILL)
        if never_materialized:
            # Never materialized: the private copy is simply a zero page.
            frame = self._page_in(private, 0, vpage)
        else:
            if src_frame is None:
                # Resident on the swap device; bring it back first.
                src_frame = self._page_in(vm_object, descriptor.obj_page,
                                          vpage)
            # Pin the source so memory pressure cannot swap it out between
            # the allocation below and the copy that reads it.
            self.pageout.pinned.add(src_frame)
            try:
                frame = self.allocate_frame(self._color_hint(vpage))
                self.pmap.copy_page(src_frame, frame, ultimate_vpage=vpage)
            finally:
                self.pageout.pinned.discard(src_frame)
            private.establish(0, frame)
        # Swap the descriptor over to the private object.
        private.reference()
        old_object = vm_object
        descriptor.vm_object = private
        descriptor.obj_page = 0
        descriptor.cow = False
        old_object.dereference()
        self.release_object_if_dead(old_object)
        self.pmap.enter(task.asid, vpage, frame, descriptor.vm_prot,
                        AccessKind.WRITE)

    def _page_in(self, vm_object: VMObject, obj_page: int,
                 ultimate_vpage: int) -> int:
        """Materialize an object page: zero-fill or read through the buffer
        cache, prepared with the ultimate-address hint (Section 4.1)."""
        frame = self.allocate_frame(self._color_hint(ultimate_vpage))
        if obj_page in vm_object.swap_slots:
            self.pageout.swap_in(vm_object, obj_page, frame)
        elif vm_object.backing is Backing.ZERO_FILL:
            self.pmap.zero_fill_page(frame, ultimate_vpage=ultimate_vpage)
        else:
            bc_frame = self.buffer_cache.read_block(vm_object.file_id,
                                                    vm_object.file_offset
                                                    + obj_page)
            self.buffer_cache.tick()
            self.pmap.copy_page(bc_frame, frame, ultimate_vpage=ultimate_vpage)
        vm_object.establish(obj_page, frame)
        if vm_object.backing is Backing.ZERO_FILL:
            self.pageout.track(vm_object, obj_page)
        return frame

    def _color_hint(self, vpage: int) -> int | None:
        if self.policy.colored_free_list:
            return vpage % self.machine.dcache.geo.num_cache_pages
        return None

    # ---- run bookkeeping ----------------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        return self.machine.elapsed_seconds

    def shutdown(self) -> None:
        """End-of-run housekeeping: sync the buffer cache to disk."""
        self.buffer_cache.sync()
