"""Tests for the machine-dependent pmap layer: the policies in action.

These drive the pmap directly (no kernel above it) on a small machine and
check both the *behaviour* (which flushes/purges happen when) and the
*correctness* (the oracle validates every transferred value).
"""

import numpy as np
import pytest

from repro.hw.machine import Machine
from repro.hw.params import small_machine
from repro.hw.stats import Reason
from repro.prot import AccessKind, Prot
from repro.vm.pmap import Pmap
from repro.vm.policy import (CONFIG_A, CONFIG_B, CONFIG_D, CONFIG_E,
                             CONFIG_F, SYSTEM_TUT)

PAGE = 4096
NCP = 4  # small machine: 16K dcache / 4K pages


class PmapRig:
    """Pmap + machine + a fault handler that resolves consistency faults."""

    def __init__(self, policy, **machine_overrides):
        self.machine = Machine(small_machine(**machine_overrides))
        self.pmap = Pmap(self.machine, policy)
        self.machine.fault_handler = self._handle
        self.consistency_faults = 0

    def _handle(self, info):
        self.consistency_faults += 1
        self.pmap.consistency_fault(info.asid, info.vaddr // PAGE,
                                    info.access)

    def enter(self, asid, vpage, ppage, access=AccessKind.READ,
              vm_prot=Prot.READ_WRITE):
        return self.pmap.enter(asid, vpage, ppage, vm_prot, access)

    def flushes(self):
        return self.machine.counters.total_flushes("dcache")

    def purges(self):
        return self.machine.counters.total_purges("dcache")


@pytest.fixture
def rig():
    return PmapRig(CONFIG_F)


class TestBasicMapping:
    def test_enter_then_access(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 42)
        assert rig.machine.read(1, 10 * PAGE) == 42

    def test_remove_revokes_translation(self, rig):
        rig.enter(1, 10, 3)
        rig.machine.read(1, 10 * PAGE)
        assert rig.pmap.remove(1, 10) == 3
        assert rig.pmap.translate(1, 10) is None
        assert (1, 10) not in rig.machine.tlb._map

    def test_protect_narrows_vm_rights(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.pmap.protect(1, 10, Prot.READ)
        pte = rig.pmap.page_table(1).lookup(10)
        assert not pte.effective_prot.allows(Prot.WRITE)


class TestUnalignedAliases:
    def test_values_stay_consistent_across_aliases(self, rig):
        # vpages 10 and 11 do not align (10 % 4 != 11 % 4).
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(2, 11, 3, AccessKind.READ, vm_prot=Prot.READ_WRITE)
        rig.machine.write(1, 10 * PAGE, 42)
        assert rig.machine.read(2, 11 * PAGE) == 42      # oracle-verified
        rig.machine.write(2, 11 * PAGE, 43)
        assert rig.machine.read(1, 10 * PAGE) == 43

    def test_alias_ping_pong_costs_flush_and_purge(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(2, 11, 3, AccessKind.READ, vm_prot=Prot.READ_WRITE)
        rig.machine.write(1, 10 * PAGE, 1)
        baseline_flushes = rig.flushes()
        rig.machine.write(2, 11 * PAGE, 2)   # consistency fault: flush 10's page
        assert rig.flushes() > baseline_flushes
        assert rig.consistency_faults >= 1

    def test_aligned_aliases_cost_nothing(self, rig):
        # vpages 10 and 14 align (both cache page 2).
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(2, 14, 3, AccessKind.WRITE, vm_prot=Prot.READ_WRITE)
        f0, p0 = rig.flushes(), rig.purges()
        for i in range(10):
            rig.machine.write(1, 10 * PAGE, i)
            rig.machine.write(2, 14 * PAGE + 4, i + 100)
        assert rig.flushes() == f0
        assert rig.purges() == p0
        assert rig.consistency_faults == 0


class TestLazyUnmap:
    def test_unmap_performs_no_cache_ops(self):
        rig = PmapRig(CONFIG_B)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 7)
        f0, p0 = rig.flushes(), rig.purges()
        rig.pmap.remove(1, 10)
        assert (rig.flushes(), rig.purges()) == (f0, p0)

    def test_aligned_reuse_after_unmap_is_free(self):
        rig = PmapRig(CONFIG_B)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 7)
        rig.pmap.remove(1, 10)
        f0, p0 = rig.flushes(), rig.purges()
        # vpage 14 aligns with vpage 10 — and the dirty data is still in
        # the cache, served directly.
        rig.enter(2, 14, 3, AccessKind.READ, vm_prot=Prot.READ)
        assert rig.machine.read(2, 14 * PAGE) == 7
        assert (rig.flushes(), rig.purges()) == (f0, p0)

    def test_unaligned_reuse_pays_at_reuse_time(self):
        rig = PmapRig(CONFIG_B)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 7)
        rig.pmap.remove(1, 10)
        f0 = rig.flushes()
        rig.enter(2, 11, 3, AccessKind.READ, vm_prot=Prot.READ)
        assert rig.machine.read(2, 11 * PAGE) == 7
        assert rig.flushes() == f0 + 1       # old dirty page flushed at reuse

    def test_eager_unmap_cleans_immediately(self):
        rig = PmapRig(CONFIG_A)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 7)
        f0 = rig.flushes()
        rig.pmap.remove(1, 10)
        assert rig.flushes() == f0 + 1
        assert rig.machine.memory.read_word(3 * PAGE) == 7


class TestPagePreparation:
    def test_zero_fill_makes_page_zero_through_any_mapping(self, rig):
        rig.pmap.zero_fill_page(5, ultimate_vpage=10)
        rig.enter(1, 10, 5)
        assert rig.machine.read(1, 10 * PAGE + 8) == 0

    def test_aligned_prepare_avoids_all_cache_ops_at_first_touch(self):
        rig = PmapRig(CONFIG_D)
        rig.pmap.zero_fill_page(5, ultimate_vpage=10)
        f0, p0 = rig.flushes(), rig.purges()
        rig.enter(1, 10, 5, AccessKind.READ)
        rig.machine.read(1, 10 * PAGE)
        assert (rig.flushes(), rig.purges()) == (f0, p0)

    def test_unaligned_prepare_flushes_at_first_touch(self):
        rig = PmapRig(CONFIG_B)   # no aligned prepare
        # frame 5 preps through cache page 5 % 4 == 1; vpage 10 is cp 2.
        rig.pmap.zero_fill_page(5, ultimate_vpage=10)
        f0 = rig.flushes()
        rig.enter(1, 10, 5, AccessKind.READ)
        rig.machine.read(1, 10 * PAGE)
        assert rig.flushes() == f0 + 1

    def test_copy_page_copies_current_values(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 99)   # dirty in cache only
        rig.pmap.copy_page(3, 5, ultimate_vpage=20)
        rig.enter(1, 20, 5)
        assert rig.machine.read(1, 20 * PAGE) == 99

    def test_need_data_purges_dead_dirty_data(self):
        rig = PmapRig(CONFIG_E)
        rig.pmap.zero_fill_page(5, ultimate_vpage=10)   # frame 5 dirty at cp 2
        f0, p0 = rig.flushes(), rig.purges()
        # Re-prepare the same frame for an unaligned ultimate address: the
        # old dirty data is dead, so it is purged, not flushed.
        rig.pmap.zero_fill_page(5, ultimate_vpage=11)
        assert rig.flushes() == f0
        assert rig.purges() == p0 + 1

    def test_without_need_data_dead_data_is_flushed(self):
        rig = PmapRig(CONFIG_D)
        rig.pmap.zero_fill_page(5, ultimate_vpage=10)
        f0 = rig.flushes()
        rig.pmap.zero_fill_page(5, ultimate_vpage=11)
        assert rig.flushes() == f0 + 1

    def test_will_overwrite_skips_stale_target_purge(self):
        rig_e = PmapRig(CONFIG_E)
        rig_f = PmapRig(CONFIG_F)
        for rig2 in (rig_e, rig_f):
            # Make cache page 2 stale for frame 5: prepare at 10 (cp 2),
            # then prepare at 11 (cp 3) — stanza 4 stales cp 2.
            rig2.pmap.zero_fill_page(5, ultimate_vpage=10)
            rig2.pmap.zero_fill_page(5, ultimate_vpage=11)
            rig2.p_before = rig2.purges()
            # Re-prepare at 10: target cp 2 is stale.  E purges; F skips.
            rig2.pmap.zero_fill_page(5, ultimate_vpage=10)
        assert rig_e.purges() == rig_e.p_before + 2  # dead-dirty + stale
        assert rig_f.purges() == rig_f.p_before + 1  # dead-dirty only


class TestDmaPreparation:
    def test_dma_read_flushes_dirty_data(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 55)
        rig.pmap.prepare_dma_read(3)
        page = rig.machine.dma.dma_read(3)   # oracle checks the transfer
        assert page[0] == 55

    def test_dma_write_then_cpu_read_sees_device_data(self, rig):
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 55)  # cached + dirty
        rig.pmap.prepare_dma_write(3)
        fresh = np.full(1024, 77, dtype=np.uint64)
        rig.machine.dma.dma_write(3, fresh)
        assert rig.machine.read(1, 10 * PAGE) == 77   # not shadowed

    def test_modified_bit_redirty_detected_at_next_dma(self, rig):
        # After a DMA-read flush the writable mapping stays writable;
        # the page-modified bit (Section 4.1) must catch the re-dirtying.
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 1)
        rig.pmap.prepare_dma_read(3)
        rig.machine.dma.dma_read(3)
        faults_before = rig.consistency_faults
        rig.machine.write(1, 10 * PAGE, 2)   # no fault: still READ_WRITE
        assert rig.consistency_faults == faults_before
        rig.pmap.prepare_dma_read(3)
        page = rig.machine.dma.dma_read(3)   # would be stale without sync
        assert page[0] == 2

    def test_without_modified_bit_write_access_is_revoked(self):
        policy = CONFIG_F.derive("F-nomod", "test", use_modified_bit=False)
        rig = PmapRig(policy)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 1)
        rig.pmap.prepare_dma_read(3)
        rig.machine.dma.dma_read(3)
        faults_before = rig.consistency_faults
        rig.machine.write(1, 10 * PAGE, 2)   # must fault: RW was revoked
        assert rig.consistency_faults == faults_before + 1
        rig.pmap.prepare_dma_read(3)
        assert rig.machine.dma.dma_read(3)[0] == 2


class TestTextInstallation:
    def test_text_page_fetches_prepared_content(self, rig):
        values = np.arange(1024, dtype=np.uint64) + 7
        rig.machine.memory.write_page(4, values)
        if rig.machine.oracle:
            rig.machine.oracle.note_page_write(4 * PAGE, values)
        rig.pmap.copy_page(4, 5, ultimate_vpage=10)
        rig.pmap.install_text_page(1, 10, 5)
        assert rig.machine.ifetch(1, 10 * PAGE + 4) == 8

    def test_install_flushes_data_cache_and_counts_d2i(self, rig):
        rig.pmap.copy_page(3, 5, ultimate_vpage=10)   # frame 5 dirty
        d2i_before = rig.machine.counters.d_to_i_copies
        f0 = rig.flushes()
        rig.pmap.install_text_page(1, 10, 5)
        assert rig.flushes() == f0 + 1
        assert rig.machine.counters.d_to_i_copies == d2i_before + 1
        flush_d2i = rig.machine.counters.total_flushes(
            "dcache", Reason.D_TO_I_COPY)
        assert flush_d2i == 1

    def test_eager_policy_attributes_flush_to_unmap(self):
        rig = PmapRig(CONFIG_A)
        rig.pmap.copy_page(3, 5, ultimate_vpage=10)
        rig.pmap.install_text_page(1, 10, 5)
        assert rig.machine.counters.d_to_i_copies == 0   # Section 5.1: "A"
        assert rig.machine.counters.total_flushes(
            "dcache", Reason.UNMAP_EAGER) >= 1

    def test_icache_purged_when_frame_reused_as_text(self, rig):
        rig.pmap.copy_page(3, 5, ultimate_vpage=10)
        rig.pmap.install_text_page(1, 10, 5)
        rig.machine.ifetch(1, 10 * PAGE)
        rig.pmap.remove(1, 10)
        # Reuse the frame as different text at an aligned icache page.
        icp = rig.machine.icache.geo.num_cache_pages
        vpage2 = 10 + icp
        values = np.full(1024, 6, dtype=np.uint64)
        rig.machine.memory.write_page(4, values)
        if rig.machine.oracle:
            rig.machine.oracle.note_page_write(4 * PAGE, values)
        rig.pmap.copy_page(4, 5, ultimate_vpage=vpage2)
        purges_before = rig.machine.counters.total_purges("icache")
        rig.pmap.install_text_page(1, vpage2, 5)
        assert rig.machine.counters.total_purges("icache") > purges_before
        assert rig.machine.ifetch(1, vpage2 * PAGE) == 6


class TestEagerBreaking:
    def test_write_breaks_other_mappings(self):
        rig = PmapRig(CONFIG_A)
        rig.enter(1, 10, 3, AccessKind.READ, vm_prot=Prot.READ_WRITE)
        rig.enter(2, 11, 3, AccessKind.WRITE, vm_prot=Prot.READ_WRITE)
        # The first mapping's PTE is gone (broken), not just protected.
        assert rig.pmap.page_table(1).lookup(10) is None

    def test_read_breaks_only_writable_mappings(self):
        rig = PmapRig(CONFIG_A)
        rig.enter(1, 10, 3, AccessKind.WRITE, vm_prot=Prot.READ_WRITE)
        rig.machine.write(1, 10 * PAGE, 5)
        rig.enter(2, 11, 3, AccessKind.READ, vm_prot=Prot.READ)
        assert rig.pmap.page_table(1).lookup(10) is None
        assert rig.machine.read(2, 11 * PAGE) == 5


class TestTutEmulation:
    def test_equal_va_reuse_is_free(self):
        rig = PmapRig(SYSTEM_TUT)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 5)
        rig.pmap.remove(1, 10)
        f0, p0 = rig.flushes(), rig.purges()
        rig.enter(2, 10, 3, AccessKind.READ, vm_prot=Prot.READ)
        assert (rig.flushes(), rig.purges()) == (f0, p0)
        assert rig.machine.read(2, 10 * PAGE) == 5

    def test_aligned_but_different_va_still_pays(self):
        # Tut keeps state per virtual address: vpage 14 aligns with 10 but
        # is not equal, so Tut flushes/purges anyway.
        rig = PmapRig(SYSTEM_TUT)
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 5)
        rig.pmap.remove(1, 10)
        f0 = rig.flushes()
        rig.enter(2, 14, 3, AccessKind.READ, vm_prot=Prot.READ)
        assert rig.flushes() == f0 + 1
        assert rig.machine.read(2, 14 * PAGE) == 5


class TestFrameLifecycle:
    def test_frame_freed_reports_color(self, rig):
        rig.enter(1, 10, 3)
        rig.machine.read(1, 10 * PAGE)
        rig.pmap.remove(1, 10)
        assert rig.pmap.frame_freed(3) == 10 % NCP

    def test_frame_freed_with_mappings_rejected(self, rig):
        from repro.errors import KernelError
        rig.enter(1, 10, 3)
        with pytest.raises(KernelError):
            rig.pmap.frame_freed(3)
