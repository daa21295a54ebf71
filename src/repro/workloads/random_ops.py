"""Randomized alias/remap/DMA stressor.

Drives the whole system — CPU reads and writes through randomly aligned
and unaligned aliases in several tasks, mapping churn, and disk DMA in
both directions — while the staleness oracle checks every transferred
value.  This is the workload behind the headline property test: *under
any policy, arbitrary interleavings never return stale data*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess, fresh_tokens
from repro.prot import Prot
from repro.vm.vm_object import Backing, VMObject
from repro.workloads.base import Workload


@dataclass
class StressStats:
    """What a stress run did."""

    reads: int = 0
    writes: int = 0
    page_reads: int = 0
    page_writes: int = 0
    block_reads: int = 0
    block_writes: int = 0
    remaps: int = 0
    dma_ins: int = 0
    dma_outs: int = 0
    forks: int = 0


class AliasStressor:
    """A reproducible random workload over shared pages.

    Args:
        kernel: the booted system to stress.
        n_tasks: how many tasks share the pages.
        n_pages: how many independent shared pages to create.
        seed: RNG seed (runs are deterministic given the seed).
    """

    def __init__(self, kernel: Kernel, n_tasks: int = 3, n_pages: int = 4,
                 seed: int = 0):
        self.kernel = kernel
        self.rng = random.Random(seed)
        self.stats = StressStats()
        self.procs = [UserProcess(kernel, f"stress{i}")
                      for i in range(n_tasks)]
        self.objects = [VMObject(1, Backing.ZERO_FILL)
                        for _ in range(n_pages)]
        # mappings[obj_index] = list of (proc_index, vpage)
        self.mappings: list[list[tuple[int, int]]] = [[] for _ in self.objects]
        ncp = kernel.machine.dcache.geo.num_cache_pages
        self._ncp = ncp
        for obj_index in range(n_pages):
            self._map_somewhere(obj_index)
        # a scratch file for DMA traffic
        self.scratch = kernel.fs.create("/stress/scratch",
                                        size_pages=n_pages, on_disk=True)
        self._value = 1

    # ---- individual actions -------------------------------------------------------

    def _map_somewhere(self, obj_index: int) -> None:
        proc_index = self.rng.randrange(len(self.procs))
        color = self.rng.randrange(self._ncp) if self.rng.random() < 0.5 else None
        vpage = self.procs[proc_index].task.map_shared(
            self.objects[obj_index], Prot.READ_WRITE, color=color)
        # Under the global-address-space model re-sharing is idempotent,
        # so the same (task, vpage) pair can come back; keep one entry.
        if (proc_index, vpage) not in self.mappings[obj_index]:
            self.mappings[obj_index].append((proc_index, vpage))

    def _pick_mapping(self, obj_index: int) -> tuple[int, int] | None:
        options = self.mappings[obj_index]
        if not options:
            return None
        return self.rng.choice(options)

    def _frame(self, obj_index: int) -> int | None:
        return self.objects[obj_index].resident_page(0)

    def do_write(self, obj_index: int) -> None:
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        word = self.rng.randrange(16)
        self.procs[proc_index].task.write(vpage, word, self._value)
        self._value += 1
        self.stats.writes += 1

    def do_read(self, obj_index: int) -> None:
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        word = self.rng.randrange(16)
        self.procs[proc_index].task.read(vpage, word)
        self.stats.reads += 1

    def do_page_write(self, obj_index: int) -> None:
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        values = fresh_tokens(self.kernel.machine.memory.words_per_page)
        self.procs[proc_index].task.write_block(vpage, 0, values)
        self.stats.page_writes += 1

    def do_page_read(self, obj_index: int) -> None:
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        self.procs[proc_index].task.read_block(
            vpage, 0, self.kernel.machine.memory.words_per_page)
        self.stats.page_reads += 1

    def do_block_write(self, obj_index: int) -> None:
        """A partial-page contiguous run through a random alias."""
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        wpp = self.kernel.machine.memory.words_per_page
        word = self.rng.randrange(wpp // 2)
        n_words = self.rng.randrange(2, wpp - word + 1)
        self.procs[proc_index].task.write_block(vpage, word,
                                                fresh_tokens(n_words))
        self.stats.block_writes += 1

    def do_block_read(self, obj_index: int) -> None:
        mapping = self._pick_mapping(obj_index)
        if mapping is None:
            return
        proc_index, vpage = mapping
        wpp = self.kernel.machine.memory.words_per_page
        word = self.rng.randrange(wpp // 2)
        n_words = self.rng.randrange(2, wpp - word + 1)
        self.procs[proc_index].task.read_block(vpage, word, n_words)
        self.stats.block_reads += 1

    def do_remap(self, obj_index: int) -> None:
        """Unmap one alias and map the object somewhere else — the 'new
        mapping' problem of Section 2.3."""
        options = self.mappings[obj_index]
        if len(options) > 1 or (options and self.rng.random() < 0.5):
            proc_index, vpage = options.pop(
                self.rng.randrange(len(options)))
            self.procs[proc_index].task.unmap(vpage)
        self._map_somewhere(obj_index)
        self.stats.remaps += 1

    def do_dma_in(self, obj_index: int) -> None:
        """Disk -> memory (DMA-write) over the shared page's frame."""
        frame = self._frame(obj_index)
        if frame is None:
            return
        self.kernel.disk.read_block(self.scratch.file_id,
                                    obj_index, frame)
        self.stats.dma_ins += 1

    def do_dma_out(self, obj_index: int) -> None:
        """Memory -> disk (DMA-read) of the shared page's frame."""
        frame = self._frame(obj_index)
        if frame is None:
            return
        self.kernel.disk.write_block(self.scratch.file_id, obj_index, frame)
        self.stats.dma_outs += 1

    ACTIONS = ("write", "write", "read", "read", "page_write", "page_read",
               "block_write", "block_read", "remap", "dma_in", "dma_out")

    def step(self) -> None:
        obj_index = self.rng.randrange(len(self.objects))
        action = self.rng.choice(self.ACTIONS)
        getattr(self, f"do_{action}")(obj_index)

    def run(self, steps: int) -> StressStats:
        for _ in range(steps):
            self.step()
        return self.stats


class RandomOps(Workload):
    """The stressor as a :class:`Workload`, for the trace round-trip tests.

    Unlike the paper benchmarks, the action mix here hits every recorded
    operation class — word and block accesses through random aliases,
    page transfers, remap churn, DMA in both directions — so a compile →
    replay round trip over it exercises the whole op alphabet.  Not part
    of the evaluation workload set (``scale`` maps to stress steps, not
    to a paper-sized input).
    """

    name = "random-ops"

    def __init__(self, scale: float = 1.0, seed: int = 0,
                 n_tasks: int = 3, n_pages: int = 4):
        self.steps = max(1, int(100 * scale))
        self.seed = seed
        self.n_tasks = n_tasks
        self.n_pages = n_pages
        self.stats: StressStats | None = None
        self._stressor: AliasStressor | None = None

    def setup(self, kernel: Kernel) -> None:
        self._stressor = AliasStressor(kernel, n_tasks=self.n_tasks,
                                       n_pages=self.n_pages, seed=self.seed)

    def execute(self, kernel: Kernel) -> None:
        assert self._stressor is not None, "setup() must run first"
        self.stats = self._stressor.run(self.steps)
