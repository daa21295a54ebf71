"""Consistency-management policies: the paper's configuration ladder and
the related systems of Table 5.

Section 5 evaluates six cumulative kernel configurations:

====  ===================  =====================================================
Name  Paper label          Adds
====  ===================  =====================================================
A     (old)                eager management: break aliases, clean at unmap
B     +lazy unmap          delay flush/purge until a virtual address is reused
C     +align pages         kernel selects aligning VAs for multiply mapped pages
                           (IPC transfers, Unix-server shared pages)
D     +aligned prepare     prepare pages (copy/zero-fill) through a VA that
                           aligns with the ultimate mapping
E     +need data           purge instead of flush when old data is dead
F     +will overwrite      skip the purge when the target is fully overwritten
====  ===================  =====================================================

Table 5's systems are expressed in the same vocabulary so their behaviour
can be *measured* rather than merely asserted: CMU is configuration F;
Utah behaves like A; Tut delays unmap cleaning but keeps state per virtual
address (only an *equal* — not merely aligned — reuse avoids cache
operations) and aligns page preparation; Apollo and Sun clean the cache
whenever the last mapping is removed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PolicyConfig:
    """Flags selecting a consistency-management strategy."""

    name: str
    description: str

    # Lazy vs eager skeleton ("old" system, Section 2.5).
    lazy_unmap: bool = True          # keep state across unmap; clean at reuse
    eager_purge_stale: bool = False  # purge instead of marking stale
    eager_break_aliases: bool = False  # break other mappings on a write fault

    # Address-selection optimizations (Section 4.2).
    align_ipc: bool = False          # C: receiver VA aligns with sender's page
    align_server_pages: bool = False  # C: Unix-server shared pages align
    aligned_prepare: bool = False    # D: page prep through the ultimate VA

    # Semantic optimizations (Section 4.1).
    opt_need_data: bool = False      # E: purge dead dirty data, don't flush
    opt_will_overwrite: bool = False  # F: skip purges for full overwrites

    # Variants for the related-systems comparison and ablations.
    tut_equal_va_only: bool = False  # Tut: state per VA; only equal VA reuses
    use_modified_bit: bool = True    # Section 4.1 page-modified optimization
    colored_free_list: bool = False  # Section 5.1 multiple-free-list extension
    uncached_aliases: bool = False   # Sun: unaligned aliases bypass the cache
    global_address_space: bool = False  # Section 2.1 single-address-space model

    def derive(self, name: str, description: str, **changes) -> "PolicyConfig":
        return replace(self, name=name, description=description, **changes)


CONFIG_A = PolicyConfig(
    name="A",
    description="old: eager alias breaking, clean cache at unmap",
    lazy_unmap=False,
    eager_purge_stale=True,
    eager_break_aliases=True,
)

CONFIG_B = PolicyConfig(
    name="B",
    description="+lazy unmap: delay flush/purge until a VA is reused",
)

CONFIG_C = CONFIG_B.derive(
    "C", "+align pages: kernel selects aligning VAs for shared pages",
    align_ipc=True, align_server_pages=True,
)

CONFIG_D = CONFIG_C.derive(
    "D", "+aligned prepare: page preparation through the ultimate VA",
    aligned_prepare=True,
)

CONFIG_E = CONFIG_D.derive(
    "E", "+need data: purge rather than flush dead dirty data",
    opt_need_data=True,
)

CONFIG_F = CONFIG_E.derive(
    "F", "+will overwrite: skip purges of fully overwritten pages",
    opt_will_overwrite=True,
)

CONFIG_LADDER: tuple[PolicyConfig, ...] = (
    CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D, CONFIG_E, CONFIG_F)

OLD_SYSTEM = CONFIG_A      # the paper's "old" kernel (Table 1)
NEW_SYSTEM = CONFIG_F      # the paper's "new" kernel (Table 1)

# Section 2.1's alternative: a single global address space on top of the
# lazy skeleton.  Sharing aligns by construction, so the Section 4.2
# address-selection machinery is unnecessary; new mappings and DMA still
# require management.
CONFIG_GLOBAL = CONFIG_B.derive(
    "G", "single global address space over lazy unmap (Section 2.1)",
    global_address_space=True)

# ---- Table 5 systems -------------------------------------------------------

SYSTEM_CMU = CONFIG_F.derive(
    "CMU", "this paper: lazy, aligned, need-data, will-overwrite")

SYSTEM_UTAH = CONFIG_A.derive(
    "Utah", "Mach port: assumes a physically indexed cache; eager cleaning")

SYSTEM_TUT = PolicyConfig(
    name="Tut",
    description=("Mach VM in HP-UX: lazy unmap but state per virtual "
                 "address (only equal reuse avoids cache ops); aligned "
                 "page preparation"),
    lazy_unmap=True,
    tut_equal_va_only=True,
    aligned_prepare=True,
)

SYSTEM_APOLLO = CONFIG_A.derive(
    "Apollo", "OSF/1 port: cleans the cache when the last mapping is removed")

SYSTEM_SUN = CONFIG_A.derive(
    "Sun", "4.2 BSD on Sun-3/200: eager cleaning; unaligned aliases only in "
           "well-behaved kernel code, otherwise uncached",
    uncached_aliases=True)

TABLE5_SYSTEMS: tuple[PolicyConfig, ...] = (
    SYSTEM_CMU, SYSTEM_UTAH, SYSTEM_TUT, SYSTEM_APOLLO, SYSTEM_SUN)

