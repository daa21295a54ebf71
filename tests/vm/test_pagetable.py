"""Tests for page tables and the two-protection PTE."""

import pytest

from repro.errors import KernelError
from repro.prot import Prot
from repro.vm.pagetable import PageTable, PageTableEntry


class TestEffectiveProtection:
    def test_intersection_of_vm_and_cache_protection(self):
        pte = PageTableEntry(ppage=1, vm_prot=Prot.READ_WRITE,
                             cache_prot=Prot.READ)
        assert pte.effective_prot is Prot.READ

    def test_cache_protection_cannot_grant_beyond_vm(self):
        pte = PageTableEntry(ppage=1, vm_prot=Prot.READ,
                             cache_prot=Prot.READ_WRITE)
        assert pte.effective_prot is Prot.READ

    def test_exec_passes_through_from_vm_side(self):
        # Consistency protection governs the data cache; EXEC is managed
        # eagerly on the icache side.
        pte = PageTableEntry(ppage=1, vm_prot=Prot.READ_EXEC,
                             cache_prot=Prot.NONE)
        assert pte.effective_prot.allows(Prot.EXEC)
        assert not pte.effective_prot.allows(Prot.READ)


class TestPageTable:
    def test_enter_lookup_remove(self):
        table = PageTable(asid=1)
        pte = table.enter(10, 3, Prot.READ_WRITE)
        assert table.lookup(10) is pte
        assert 10 in table
        removed = table.remove(10)
        assert removed is pte
        assert table.lookup(10) is None

    def test_double_enter_rejected(self):
        table = PageTable(asid=1)
        table.enter(10, 3, Prot.READ)
        with pytest.raises(KernelError):
            table.enter(10, 4, Prot.READ)

    def test_remove_missing_rejected(self):
        with pytest.raises(KernelError):
            PageTable(asid=1).remove(10)

