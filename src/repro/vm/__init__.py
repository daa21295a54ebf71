"""The Mach-style virtual memory substrate."""

from repro.vm.address_space import AddressSpace, PageDescriptor, PageKind
from repro.vm.free_list import FreePageList
from repro.vm.pagetable import PageTable, PageTableEntry
from repro.vm.pmap import Pmap
from repro.vm.policy import (CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D, CONFIG_E,
                             CONFIG_F, CONFIG_GLOBAL, CONFIG_LADDER,
                             NEW_SYSTEM, OLD_SYSTEM, TABLE5_SYSTEMS,
                             PolicyConfig)
from repro.vm.prot import AccessKind, Prot
from repro.vm.vm_object import Backing, VMObject

__all__ = [
    "AddressSpace", "PageDescriptor", "PageKind", "FreePageList",
    "PageTable", "PageTableEntry", "Pmap", "PolicyConfig", "CONFIG_A",
    "CONFIG_B", "CONFIG_C", "CONFIG_D", "CONFIG_E", "CONFIG_F",
    "CONFIG_GLOBAL", "CONFIG_LADDER", "TABLE5_SYSTEMS", "OLD_SYSTEM", "NEW_SYSTEM",
    "AccessKind", "Prot", "Backing", "VMObject",
]
