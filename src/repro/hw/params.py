"""Hardware parameters: cache geometry, cycle-cost model, machine config.

The defaults model the HP 9000 Series 700 Model 720 used in the paper:
a 50 MHz PA-RISC with separate, direct-mapped, virtually indexed,
physically tagged caches; the data cache is write-back.  The quantitative
quirks the paper reports are encoded in :class:`CostModel`:

* a purge or flush of a virtual address can be *up to seven times slower*
  when the data is resident in the cache (Section 2.3),
* the 720 "appears to purge no more quickly than it flushes" (Section 5.1),
* purging the instruction cache takes *constant time* regardless of its
  contents (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size and shape of one cache and of the paging system it serves.

    Attributes:
        size: total cache capacity in bytes.
        line_size: cache line size in bytes.
        page_size: virtual-memory page size in bytes.
        associativity: number of ways (1 = direct mapped).
        physically_indexed: select the set with the physical, not virtual,
            address (the Section 3.3 "physically indexed" variant).
        write_through: propagate every store to memory immediately (the
            Section 3.3 "write-through" variant; there is no Dirty state).
    """

    size: int = 256 * 1024
    line_size: int = 32
    page_size: int = 4096
    associativity: int = 1
    physically_indexed: bool = False
    write_through: bool = False

    def __post_init__(self) -> None:
        for name in ("size", "line_size", "page_size", "associativity"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a power of two, "
                                         f"got {getattr(self, name)}")
        if self.line_size % WORD_SIZE:
            raise ConfigurationError("line_size must be a multiple of the word size")
        if self.page_size % self.line_size:
            raise ConfigurationError("page_size must be a multiple of line_size")
        if self.size % (self.line_size * self.associativity):
            raise ConfigurationError("size must divide evenly into ways of lines")
        if self.way_span % self.page_size:
            raise ConfigurationError(
                "each way must span a whole number of pages so that cache "
                "pages are well defined (the paper's first hardware "
                "requirement, Section 4)")

    @cached_property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @cached_property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @cached_property
    def way_span(self) -> int:
        """Bytes of address space covered by one way before indices repeat."""
        return self.num_sets * self.line_size

    @cached_property
    def num_cache_pages(self) -> int:
        """Number of cache pages: cache-way span divided by the page size.

        All virtual pages whose page numbers are congruent modulo this value
        *align* in the cache (Section 2.2).
        """
        return self.way_span // self.page_size

    @cached_property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    @cached_property
    def words_per_line(self) -> int:
        return self.line_size // WORD_SIZE

    @cached_property
    def words_per_page(self) -> int:
        return self.page_size // WORD_SIZE

    def set_index(self, addr: int) -> int:
        """Set selected by an address (virtual or physical per indexing mode)."""
        return (addr // self.line_size) % self.num_sets

    def cache_page(self, addr: int) -> int:
        """Cache page selected by an address (Section 4: the set of cache
        lines onto which the index function maps all addresses of a page)."""
        return (addr // self.page_size) % self.num_cache_pages

    def aligned(self, addr_a: int, addr_b: int) -> bool:
        """True if two addresses select the same cache page (they *align*)."""
        return self.cache_page(addr_a) == self.cache_page(addr_b)


WORD_SIZE = 4  # bytes per word; the unit of CPU loads/stores in the simulator


@dataclass(frozen=True)
class L2Geometry:
    """Shape of the optional unified, physically indexed second-level cache.

    The L2 sits between the L1s and memory and is *physically* indexed and
    tagged, so it is immune to the paper's virtual-alias problem by
    construction — Section 3.3's "physically indexed" observation applied
    one level down.  It holds only clean copies (the simulated L1 is the
    point of coherence; dirty write-backs go straight to memory), so no
    consistency state is needed for it: the derived Table 2 tables are
    unchanged (see :func:`repro.core.variants.set_associative_note`).
    """

    size: int = 256 * 1024
    line_size: int = 32
    associativity: int = 4

    def __post_init__(self) -> None:
        for name in ("size", "line_size", "associativity"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigurationError(f"L2 {name} must be a power of two, "
                                         f"got {getattr(self, name)}")
        if self.size % (self.line_size * self.associativity):
            raise ConfigurationError(
                "L2 size must divide evenly into ways of lines")

    @cached_property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @cached_property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for memory-system events.

    These are calibrated to reproduce the *relationships* the paper reports,
    not the absolute cycle counts of a real 720 (see DESIGN.md Section 5).
    """

    clock_hz: int = 50_000_000          # Model 720 runs at 50 MHz
    cache_hit: int = 1
    line_fill: int = 20                 # miss penalty: fetch a line from memory
    write_back: int = 20                # store a dirty victim line to memory

    # Lower-level hierarchy fill sources (PR 8).  A miss that hits in the
    # victim cache or the unified L2 is cheaper than a full line fill from
    # memory; a miss that falls through both still costs ``line_fill``.
    victim_hit: int = 4                 # L1 miss satisfied by the victim cache
    l2_hit: int = 10                    # L1 miss satisfied by the unified L2
    tlb_hit: int = 0
    tlb_miss: int = 25                  # software TLB refill walk

    # Flush/purge of a single line.  Resident lines cost ~7x more than
    # non-resident ones (Section 2.3); on the 720 purges are no cheaper
    # than flushes (Section 5.1), so the defaults are identical.
    flush_line_miss: int = 1
    flush_line_hit: int = 7
    purge_line_miss: int = 1
    purge_line_hit: int = 7

    # The 720 purges its instruction cache in constant time regardless of
    # contents (Section 5.1).  Cost per page-sized purge of the icache.
    icache_purge_page: int = 128

    # One reverse-lookup-table consult (the `rlt` policy): indexed by
    # physical page, answered in a handful of cycles by dedicated
    # hardware (arXiv 2108.00444 models it as a small SRAM walk).
    rlt_lookup: int = 4

    uncached_word: int = 20             # word access that bypasses the cache
    fault_overhead: int = 300           # trap + dispatch + return for any fault
    dma_setup: int = 200                # programming a DMA transfer
    dma_word: int = 1                   # per-word device transfer time

    # Recovery costs (the fault-injection subsystem's retry paths charge
    # these to the shared clock so recovery shows up in cycle counts).
    disk_retry_backoff: int = 2_000     # base backoff before re-issuing a
                                        # failed disk/DMA transfer; attempt
                                        # k waits k times this
    tlb_parity_recovery: int = 50       # detect a corrupted TLB entry via
                                        # parity, invalidate, re-walk

    def seconds(self, cycles: int) -> float:
        """Convert a cycle count into seconds of 50 MHz machine time."""
        return cycles / self.clock_hz


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated machine.

    Attributes:
        dcache: geometry of the data cache (write-back on the 720).
        icache: geometry of the instruction cache (never dirty).
        phys_pages: number of physical page frames.
        tlb_entries: TLB capacity.
        cost: the cycle-cost model.
        check_consistency: install the staleness oracle; every value the
            memory system transfers to the CPU or a device is checked.
        n_cpus: number of CPUs.  1 gives the paper's uniprocessor; >1
            builds a Section 3.3 :class:`~repro.hw.smp.CoherentCluster`
            of per-CPU data caches kept coherent by snooping (the
            instruction cache stays shared — it is never dirty, so it
            needs no coherence protocol).
        victim_lines: number of entries in the small fully associative,
            physically tagged victim cache between the L1s and memory.
            0 (the default) means no victim cache — bit-identical to the
            seed machine.
        l2: geometry of the optional unified physically indexed L2, or
            ``None`` (the default) for none.
    """

    dcache: CacheGeometry = field(default_factory=CacheGeometry)
    icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size=128 * 1024))
    phys_pages: int = 2048
    tlb_entries: int = 128
    cost: CostModel = field(default_factory=CostModel)
    check_consistency: bool = True
    n_cpus: int = 1
    victim_lines: int = 0
    l2: L2Geometry | None = None

    def __post_init__(self) -> None:
        if self.dcache.page_size != self.icache.page_size:
            raise ConfigurationError("I and D caches must agree on page size")
        if self.phys_pages <= 0:
            raise ConfigurationError("phys_pages must be positive")
        if self.n_cpus < 1:
            raise ConfigurationError("n_cpus must be at least 1")
        if self.victim_lines < 0:
            raise ConfigurationError("victim_lines must be non-negative")
        if self.l2 is not None and self.l2.line_size != self.dcache.line_size:
            raise ConfigurationError(
                "the L2 must use the L1 line size (lines move between "
                "levels whole)")
        if self.has_hierarchy and self.icache.line_size != self.dcache.line_size:
            raise ConfigurationError(
                "a shared lower hierarchy (victim cache or L2) requires "
                "I and D caches to agree on line size")

    @property
    def has_hierarchy(self) -> bool:
        """True when a victim cache or an L2 sits below the L1s."""
        return self.victim_lines > 0 or self.l2 is not None

    @property
    def page_size(self) -> int:
        return self.dcache.page_size


def small_machine(**overrides) -> MachineConfig:
    """A small configuration convenient for unit tests.

    4 KiB pages, a 16 KiB direct-mapped data cache (4 cache pages) and an
    8 KiB instruction cache (2 cache pages), 64 physical pages.
    """
    params = dict(
        dcache=CacheGeometry(size=16 * 1024),
        icache=CacheGeometry(size=8 * 1024),
        phys_pages=64,
        tlb_entries=16,
    )
    params.update(overrides)
    return MachineConfig(**params)


def _parse_size(text: str, what: str) -> int:
    text = text.lower()
    try:
        if text.endswith("m"):
            return int(text[:-1]) * 1024 * 1024
        if text.endswith("k"):
            return int(text[:-1]) * 1024
        return int(text)
    except ValueError:
        raise ConfigurationError(f"bad {what} size {text!r}") from None


def _count(text: str) -> int | None:
    """``text`` as a count of plain decimal digits, or None if it is not
    one (``str.isdigit`` also admits digits ``int`` rejects, such as
    superscripts)."""
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:          # beyond int()'s digit limit
        return None


def apply_geometry(config: MachineConfig, spec: str) -> MachineConfig:
    """Apply a compact hierarchy spec to a machine configuration.

    ``spec`` is a ``+``-separated list of tokens, each adjusting one axis
    of the data-side hierarchy (the instruction cache is untouched):

    * ``<N>way`` — make the data cache N-way set associative (LRU),
      keeping its total size; ``1way`` is the seed direct-mapped cache.
    * ``victim<N>`` — add an N-entry fully associative victim cache
      between the L1s and memory (``victim0`` removes it).
    * ``l2`` / ``l2:<SIZE>`` / ``l2:<SIZE>/<WAYS>`` — add a unified
      physically indexed L2 (sizes accept ``k``/``m`` suffixes);
      defaults are :class:`L2Geometry`'s.
    * ``wt`` — make the data cache write-through (Section 3.3 variant).
    * ``pi`` — make the data cache physically indexed (Section 3.3
      variant).

    Examples: ``2way``, ``4way+victim8``, ``2way+l2:256k/8``,
    ``wt+victim4``, ``pi``.  Returns a new :class:`MachineConfig`; the
    input is unchanged.
    """
    from dataclasses import replace

    dcache = config.dcache
    victim_lines = config.victim_lines
    l2 = config.l2
    for token in spec.split("+"):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("way") and (n := _count(token[:-3])) is not None:
            dcache = replace(dcache, associativity=n)
        elif (token.startswith("victim")
              and (n := _count(token[6:])) is not None):
            victim_lines = n
        elif token == "l2" or token.startswith("l2:"):
            size, ways = L2Geometry.size, L2Geometry.associativity
            if token.startswith("l2:"):
                body = token[3:]
                if "/" in body:
                    size_text, ways_text = body.split("/", 1)
                    ways = _count(ways_text)
                    if ways is None:
                        raise ConfigurationError(
                            f"bad L2 way count in {token!r}")
                else:
                    size_text = body
                size = _parse_size(size_text, "L2")
            l2 = L2Geometry(size=size, line_size=dcache.line_size,
                            associativity=ways)
        elif token == "wt":
            dcache = replace(dcache, write_through=True)
        elif token == "pi":
            dcache = replace(dcache, physically_indexed=True)
        else:
            raise ConfigurationError(
                f"unknown geometry token {token!r} (expected <N>way, "
                "victim<N>, l2[:SIZE[/WAYS]], wt, or pi)")
    return replace(config, dcache=dcache, victim_lines=victim_lines, l2=l2)
