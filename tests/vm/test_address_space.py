"""Tests for address spaces and the two VA-selection strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.prot import Prot
from repro.vm.address_space import AddressSpace, PageDescriptor, PageKind
from repro.vm.vm_object import Backing, VMObject

NCP = 8


def make_space():
    return AddressSpace(asid=1, num_cache_pages=NCP, first_vpage=16)


def descriptor():
    return PageDescriptor(PageKind.ANON, VMObject(1, Backing.ZERO_FILL), 0,
                          Prot.READ_WRITE)


class TestFirstFit:
    def test_sequential_allocation(self):
        space = make_space()
        a = space.allocate_vpages()
        space.map_page(a, descriptor())
        b = space.allocate_vpages()
        assert b == a + 1

    def test_freed_addresses_are_reused(self):
        # Mach's anywhere-allocation reuses the lowest free range — the
        # source of natural alignment on reuse.
        space = make_space()
        a = space.allocate_vpages()
        space.map_page(a, descriptor())
        space.unmap_page(a)
        assert space.allocate_vpages() == a

    def test_multi_page_ranges_are_contiguous(self):
        space = make_space()
        a = space.allocate_vpages(3)
        for i in range(3):
            space.map_page(a + i, descriptor())
        b = space.allocate_vpages(2)
        assert b == a + 3

    def test_range_skips_partial_holes(self):
        space = make_space()
        a = space.allocate_vpages(1)
        space.map_page(a + 1, descriptor())   # poke a hole blocker
        got = space.allocate_vpages(2)
        assert got == a + 2


class TestColoredAllocation:
    def test_color_selects_cache_page(self):
        space = make_space()
        for color in range(NCP):
            vpage = space.allocate_vpages(color=color)
            assert vpage % NCP == color
            space.map_page(vpage, descriptor())

    def test_colored_collision_steps_by_ncp(self):
        space = make_space()
        first = space.allocate_vpages(color=3)
        space.map_page(first, descriptor())
        second = space.allocate_vpages(color=3)
        assert second == first + NCP

    def test_exhaustion_raises(self):
        space = AddressSpace(1, NCP, first_vpage=0, max_vpage=4)
        for _ in range(4):
            space.map_page(space.allocate_vpages(), descriptor())
        with pytest.raises(KernelError):
            space.allocate_vpages()


def reference_allocate(mapped: set, cursor: int, ncp: int, max_vpage: int,
                       npages: int, color: int | None) -> int:
    """First fit by the plain scan: the lowest candidate from ``cursor``
    (stepping by ``ncp`` from the first page of ``color`` when one is
    asked) whose whole range is unmapped."""
    start, step = cursor, 1
    if color is not None:
        start, step = start + (color - start) % ncp, ncp
    while any(start + i in mapped for i in range(npages)):
        start += step
        if start + npages > max_vpage:
            raise KernelError("exhausted")
    return start


class TestAllocatorAgainstReference:
    FIRST, MAX = 16, 32

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 3),
                  st.one_of(st.none(), st.integers(0, NCP - 1))),
        st.tuples(st.just("unmap"), st.integers(0, 63))), max_size=40))
    def test_allocate_matches_the_first_fit_scan(self, steps):
        """Any map/unmap history: each allocation returns the reference
        scan's page, or both run out of address space."""
        space = AddressSpace(1, NCP, first_vpage=self.FIRST,
                             max_vpage=self.MAX)
        mapped: set[int] = set()
        for step in steps:
            if step[0] == "unmap":
                if mapped:
                    vpage = sorted(mapped)[step[1] % len(mapped)]
                    space.unmap_page(vpage)
                    mapped.discard(vpage)
                continue
            _, npages, color = step
            try:
                want = reference_allocate(mapped, self.FIRST, NCP, self.MAX,
                                          npages, color)
            except KernelError:
                with pytest.raises(KernelError, match="exhausted"):
                    space.allocate_vpages(npages, color=color)
                continue
            assert space.allocate_vpages(npages, color=color) == want
            for vpage in range(want, want + npages):
                space.map_page(vpage, descriptor())
                mapped.add(vpage)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 3),
                  st.one_of(st.none(), st.integers(0, NCP - 1))),
        st.tuples(st.just("map"), st.integers(0, 40)),
        st.tuples(st.just("unmap"), st.integers(0, 63))), max_size=60))
    def test_the_lowest_free_hint_keeps_first_fit(self, steps):
        """Pages mapped anywhere, below ``first_vpage`` and out of order
        included, and unmapped in any order: the allocator that starts
        at its lowest-free hint returns the plain scan's page."""
        space = AddressSpace(1, NCP, first_vpage=self.FIRST,
                             max_vpage=self.MAX)
        mapped: set[int] = set()
        for step in steps:
            if step[0] == "map":
                if step[1] not in mapped:
                    space.map_page(step[1], descriptor())
                    mapped.add(step[1])
            elif step[0] == "unmap":
                if mapped:
                    vpage = sorted(mapped)[step[1] % len(mapped)]
                    space.unmap_page(vpage)
                    mapped.discard(vpage)
            else:
                _, npages, color = step
                try:
                    want = reference_allocate(mapped, self.FIRST, NCP,
                                              self.MAX, npages, color)
                except KernelError:
                    with pytest.raises(KernelError, match="exhausted"):
                        space.allocate_vpages(npages, color=color)
                    continue
                assert space.allocate_vpages(npages, color=color) == want

    @pytest.mark.parametrize("npages,color", [(1, None), (1, 2), (3, None),
                                              (2, 5)])
    def test_a_full_space_is_exhausted_at_max_vpage(self, npages, color):
        space = AddressSpace(1, NCP, first_vpage=self.FIRST,
                             max_vpage=self.MAX)
        for vpage in range(self.FIRST, self.MAX):
            space.map_page(vpage, descriptor())
        with pytest.raises(KernelError, match="address space exhausted"):
            space.allocate_vpages(npages, color=color)


class TestMappingBookkeeping:
    def test_map_unmap_refcounts_object(self):
        space = make_space()
        desc = descriptor()
        vpage = space.allocate_vpages()
        space.map_page(vpage, desc)
        assert desc.vm_object.ref_count == 1
        space.unmap_page(vpage)
        assert desc.vm_object.ref_count == 0

    def test_double_map_rejected(self):
        space = make_space()
        vpage = space.allocate_vpages()
        space.map_page(vpage, descriptor())
        with pytest.raises(KernelError):
            space.map_page(vpage, descriptor())

    def test_unmap_missing_rejected(self):
        with pytest.raises(KernelError):
            make_space().unmap_page(99)

    def test_mapped_vpages_sorted(self):
        space = make_space()
        for vpage in (30, 20, 25):
            space.map_page(vpage, descriptor())
        assert space.mapped_vpages() == [20, 25, 30]

    def test_zero_pages_rejected(self):
        with pytest.raises(KernelError):
            make_space().allocate_vpages(0)

    def test_cache_page_of(self):
        space = make_space()
        assert space.cache_page_of(NCP + 3) == 3
