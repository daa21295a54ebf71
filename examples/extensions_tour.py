#!/usr/bin/env python3
"""A tour of the extensions beyond the paper's core evaluation.

Four pieces the paper discusses but does not measure, built out and
demonstrated here:

1. **Global address space** (Section 2.1's alternative model): sharing
   aligns by construction, so alias faults vanish without any of the
   Section 4.2 address-selection machinery.
2. **Uncached aliases** (the Sun system's fallback, Section 6): an
   unaligned alias set bypasses the cache — no faults at all, at
   memory-speed per access.
3. **Pageout to swap**: memory pressure drives pages to disk through the
   DMA-read rules and back through the DMA-write/new-mapping rules.
4. **Cache-coherent multiprocessor** (Section 3.3): hardware resolves
   aligned sharing between CPUs; unaligned aliasing remains the software
   model's job — unchanged.

Run:  python examples/extensions_tour.py
"""

from repro import CONFIG_GLOBAL, Kernel, MachineConfig, NEW_SYSTEM
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, FaultKind
from repro.kernel.process import UserProcess
from repro.policy import get_policy
from repro.prot import Prot
from repro.vm.vm_object import VMObject


def global_address_space() -> None:
    print("=== 1. global address space (Section 2.1) ===")
    kernel = Kernel(policy=CONFIG_GLOBAL)
    a = kernel.create_task("a")
    b = kernel.create_task("b")
    obj = VMObject(1)
    vpage = a.map_shared(obj, Prot.READ_WRITE)
    assert b.map_shared(obj, Prot.READ_WRITE) == vpage
    a.write(vpage, 0, 1)
    b.read(vpage, 0)
    a.write(vpage, 0, 2)
    before = kernel.machine.counters.faults[FaultKind.CONSISTENCY]
    for i in range(1000):
        a.write(vpage, 0, i)
        b.read(vpage, 0)
    faults = kernel.machine.counters.faults[FaultKind.CONSISTENCY] - before
    print(f"  one page, one address, two tasks: 1000 exchanges, "
          f"{faults} consistency faults\n")


def uncached_aliases() -> None:
    print("=== 2. uncached aliases (the Sun fallback) ===")
    kernel = Kernel(policy=get_policy("Sun"))
    proc = UserProcess(kernel, "p")
    obj = VMObject(1)
    va1 = proc.task.map_shared(obj, Prot.READ_WRITE, color=1)
    va2 = proc.task.map_shared(obj, Prot.READ_WRITE, color=2)  # unaligned
    proc.task.write(va1, 0, 1)
    proc.task.read(va2, 0)   # conversion happens here
    t0 = kernel.machine.clock.cycles
    for i in range(500):
        proc.task.write(va1, 0, i)
        assert proc.task.read(va2, 0) == i
    cycles = (kernel.machine.clock.cycles - t0) / 1000
    print(f"  unaligned ping-pong, uncached: {cycles:.1f} cycles/access, "
          f"{kernel.machine.counters.pages_made_uncached} page(s) converted")
    print("  (compare ~650 cycles/write for the trap-and-flush path)\n")


def pageout() -> None:
    print("=== 3. pageout under memory pressure ===")
    kernel = Kernel(policy=NEW_SYSTEM,
                    config=MachineConfig(phys_pages=40),
                    buffer_cache_pages=8)
    proc = UserProcess(kernel, "hog")
    vpages = []
    for batch in range(8):
        vpage = proc.task.allocate_anon(4)
        for i in range(4):
            proc.task.write(vpage + i, 0, batch * 10 + i)
        vpages.append(vpage)
        proc.create(f"/tick{batch}")
    print(f"  touched 32 pages on a 40-frame machine: "
          f"{kernel.pageout.pages_swapped_out} swapped out")
    ok = all(proc.task.read(vpage + i, 0) == batch * 10 + i
             for batch, vpage in enumerate(vpages) for i in range(4))
    print(f"  all values survive the round trip: {ok} "
          f"({kernel.pageout.pages_swapped_in} swapped back in)\n")


def multiprocessor() -> None:
    print("=== 4. coherent multiprocessor (Section 3.3) ===")
    geo = CacheGeometry(size=16 * 1024)
    counters = Counters()
    cluster = CoherentCluster(2, geo, PhysicalMemory(8, 4096), CostModel(),
                              Clock(), counters)
    # The cluster is one data cache; current_cpu picks whose cache an
    # access goes through.
    cluster.current_cpu = 0
    cluster.write(0, 0, 7)
    cluster.current_cpu = 1
    print(f"  cpu1 reads cpu0's dirty line (aligned): "
          f"{cluster.read(0, 0)} — hardware coherence, "
          f"{counters.coherence_writebacks} snoop write-back")
    cluster.current_cpu = 0
    cluster.write(0, 0, 8)
    cluster.current_cpu = 1
    stale = cluster.read(4096, 0)   # unaligned alias on cpu1
    print(f"  cpu1 reads through an UNALIGNED alias: {stale} (stale!) — "
          "the software model applies unchanged")
    # Table 2 for a CPU-read of a stale line: flush the dirty unaligned
    # line (cache page 0), purge the stale target (cache page 1) — both
    # cluster-wide on this hardware.
    from repro.hw.stats import Reason
    cluster.flush_page_frame(0, 0, Reason.ALIAS_READ)
    cluster.purge_page_frame(1, 0, Reason.ALIAS_READ)
    print(f"  after the model's flush + purge: "
          f"{cluster.read(4096, 0)}")


if __name__ == "__main__":
    global_address_space()
    uncached_aliases()
    pageout()
    multiprocessor()
