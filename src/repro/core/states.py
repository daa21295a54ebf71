"""Consistency states and memory-system events (Section 3.2).

For any virtual address, a cache line is in one of four states:

* **EMPTY** — the line does not contain the data at that virtual address;
  an access misses and transfers a value from main memory.
* **PRESENT** — the line contains the correct data for the address.
* **DIRTY** — like PRESENT, but the line has been written by the CPU and
  may be inconsistent with memory or another cache line.
* **STALE** — the line's data for the cached physical address is
  inconsistent with a more recently written version in memory or in
  another cache line.

Six events change consistency state: CPU-read, CPU-write, DMA-read,
DMA-write, Purge and Flush.  The first four can create inconsistencies;
the last two resolve them.
"""

from __future__ import annotations

import enum


class LineState(enum.Enum):
    """The four consistency states of a cache line (or cache page)."""

    EMPTY = "E"
    PRESENT = "P"
    DIRTY = "D"
    STALE = "S"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MemoryOp(enum.Enum):
    """The six events of the consistency model.

    ``is_cpu``, ``is_dma``, ``is_cache_op`` and ``is_write`` (a CPU- or
    DMA-write: new data enters the memory system) are plain member
    attributes, set once here: CacheControl tests them several times per
    call, where a property would cost a Python-level call each time.
    """

    CPU_READ = "CPU-read"
    CPU_WRITE = "CPU-write"
    DMA_READ = "DMA-read"       # device reads memory
    DMA_WRITE = "DMA-write"     # device writes memory
    PURGE = "Purge"
    FLUSH = "Flush"

    def __init__(self, value: str):
        self.is_cpu = value in ("CPU-read", "CPU-write")
        self.is_dma = value in ("DMA-read", "DMA-write")
        self.is_cache_op = value in ("Purge", "Flush")
        self.is_write = value in ("CPU-write", "DMA-write")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Action(enum.Enum):
    """Cache consistency operation required to force a transition."""

    NONE = "-"
    PURGE = "purge"
    FLUSH = "flush"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The event alphabet, grouped as Table 2 groups it.  These are THE
# module-level definitions every enumerator builds from — the exhaustive
# checker and the conformance explorer share them (a sync test asserts
# the derived alphabets agree), so a new event added here reaches both.

#: targeted events: each pairs with a cache page (Table 2's CPU rows).
CPU_EVENTS = (MemoryOp.CPU_READ, MemoryOp.CPU_WRITE)
#: untargeted events: DMA acts on the physical page (Table 2's DMA rows).
DMA_EVENTS = (MemoryOp.DMA_READ, MemoryOp.DMA_WRITE)
#: explicit cache management (Table 2's last rows); these never *require*
#: actions, so the exhaustive refinement check leaves them out by default.
CACHE_OP_EVENTS = (MemoryOp.PURGE, MemoryOp.FLUSH)
#: an engine Action rendered as the event the model consumes.
ACTION_EVENT = {Action.PURGE: MemoryOp.PURGE, Action.FLUSH: MemoryOp.FLUSH}
