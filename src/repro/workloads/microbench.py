"""The contrived Section 2.5 microbenchmark.

"A single thread repeatedly wrote one physical address through two
virtual addresses.  When the virtual addresses were aligned, a loop of
1,000,000 writes completed in a fraction of a second.  When unaligned,
the loop took over 2 minutes."

With aligned aliases both virtual addresses select the same cache line,
so after warmup every write is a cache hit and no consistency machinery
runs.  With unaligned aliases every alternation is a consistency fault
that flushes the previously dirty cache page and purges the newly stale
one — three orders of magnitude slower per write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.prot import Prot
from repro.vm.vm_object import Backing, VMObject


@dataclass(frozen=True)
class AliasLoopResult:
    """Measurements from one run of the write loop."""

    aligned: bool
    iterations: int
    cycles: int
    seconds: float
    consistency_faults: int
    page_flushes: int
    page_purges: int

    @property
    def cycles_per_write(self) -> float:
        return self.cycles / self.iterations


def run_alias_write_loop(kernel: Kernel, iterations: int,
                         aligned: bool,
                         run_words: int = 1) -> AliasLoopResult:
    """Write one physical page alternately through two virtual addresses.

    Returns the cost of the loop.  The two mappings live in one task; the
    ``aligned`` flag controls whether the second virtual page selects the
    same cache page as the first.  With ``run_words > 1`` each iteration
    stores a contiguous run through the block API instead of one word —
    the batched variant of the same alternation pattern.
    """
    proc = UserProcess(kernel, "alias-loop")
    page_object = VMObject(1, Backing.ZERO_FILL)
    ncp = kernel.machine.dcache.geo.num_cache_pages
    vpage_a = proc.task.map_shared(page_object, Prot.READ_WRITE)
    color_a = proc.task.space.cache_page_of(vpage_a)
    color_b = color_a if aligned else (color_a + 1) % ncp
    vpage_b = proc.task.map_shared(page_object, Prot.READ_WRITE,
                                   color=color_b)

    counters = kernel.machine.counters
    start_cycles = kernel.machine.clock.cycles
    start_faults = counters.faults.copy()
    start_flushes = counters.total_flushes()
    start_purges = counters.total_purges()

    value = 1
    for i in range(iterations):
        vpage = vpage_a if (i & 1) == 0 else vpage_b
        if run_words == 1:
            proc.task.write(vpage, 0, value)
        else:
            proc.task.write_block(vpage, 0,
                                  range(value, value + run_words))
        value += run_words

    from repro.hw.stats import FaultKind
    cycles = kernel.machine.clock.cycles - start_cycles
    result = AliasLoopResult(
        aligned=aligned,
        iterations=iterations,
        cycles=cycles,
        seconds=kernel.machine.config.cost.seconds(cycles),
        consistency_faults=(counters.faults[FaultKind.CONSISTENCY]
                            - start_faults[FaultKind.CONSISTENCY]),
        page_flushes=counters.total_flushes() - start_flushes,
        page_purges=counters.total_purges() - start_purges,
    )
    proc.exit()
    return result
