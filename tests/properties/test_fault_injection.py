"""Fault injection: each consistency action is *necessary*, not merely
sufficient.

Every test arms exactly one injection point of the deterministic fault
injector (dropping the stanza 2 flush, the stanza 3 purge, the DMA
preparations) — or, for actions without an injection point, sabotages the
engine callback directly — and shows a short witness workload on which
the staleness oracle, in recording mode, observes a stale transfer.
Together with the no-stale-data property tests this brackets the
algorithm: with all actions it is correct, and no action is dead weight.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.hw.machine import Machine
from repro.hw.params import small_machine
from repro.prot import AccessKind, Prot
from repro.vm.pmap import Pmap
from repro.vm.policy import CONFIG_F

PAGE = 4096


class Rig:
    def __init__(self, *drop_points: str):
        self.machine = Machine(small_machine())
        self.machine.oracle.record_only = True
        self.pmap = Pmap(self.machine, CONFIG_F)
        self.machine.fault_handler = self._handle
        self.injector = None
        if drop_points:
            plan = FaultPlan(seed=0, rules=tuple(FaultRule(p)
                                                 for p in drop_points))
            self.injector = FaultInjector(plan, self.machine.clock)
            self.pmap.injector = self.injector

    def _handle(self, info):
        self.pmap.consistency_fault(info.asid, info.vaddr // PAGE,
                                    info.access)

    def enter(self, asid, vpage, ppage, access=AccessKind.READ):
        self.pmap.enter(asid, vpage, ppage, Prot.READ_WRITE, access)

    @property
    def violations(self):
        return self.machine.oracle.violations


def _noop(*args, **kwargs):
    return None


class TestEachActionIsNecessary:
    def test_baseline_witnesses_are_clean_without_sabotage(self):
        rig = Rig()
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.write(1, 10 * PAGE, 42)
        assert rig.machine.read(1, 11 * PAGE) == 42
        rig.pmap.prepare_dma_read(3)
        rig.machine.dma.dma_read(3)
        assert rig.violations == []

    def test_skipping_the_stanza2_flush_serves_stale_memory(self):
        rig = Rig("pmap.flush.drop")            # sabotage: flushes dropped
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.write(1, 10 * PAGE, 42)     # dirty only in the cache
        rig.machine.read(1, 11 * PAGE)          # fill reads stale memory
        assert rig.violations, "dropping the flush must be observable"
        assert rig.violations[0].kind == "cpu-read"
        assert rig.injector.fired("pmap.flush.drop")
        assert any(r.consequential
                   for r in rig.injector.records("pmap.flush.drop"))

    def test_duplicating_the_flush_is_harmless(self):
        # Flushing twice is wasted work, never staleness: the second pass
        # finds clean lines.  The injector's audit still shows the fires.
        rig = Rig("pmap.flush.duplicate")
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.write(1, 10 * PAGE, 42)
        assert rig.machine.read(1, 11 * PAGE) == 42
        assert rig.violations == []
        assert rig.injector.fired("pmap.flush.duplicate")

    def test_skipping_the_stanza3_purge_serves_stale_cache_lines(self):
        rig = Rig("pmap.purge.drop")            # sabotage: purges dropped
        rig.enter(1, 10, 3, AccessKind.READ)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.read(1, 10 * PAGE)          # resident at cache page 2
        rig.machine.write(1, 11 * PAGE, 7)      # stales cache page 2
        rig.machine.read(1, 10 * PAGE)          # stale line still resident
        assert rig.violations
        assert rig.violations[0].kind == "cpu-read"
        assert any(r.consequential
                   for r in rig.injector.records("pmap.purge.drop"))

    def test_duplicating_the_purge_is_harmless(self):
        rig = Rig("pmap.purge.duplicate")
        rig.enter(1, 10, 3, AccessKind.READ)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.read(1, 10 * PAGE)
        rig.machine.write(1, 11 * PAGE, 7)
        assert rig.machine.read(1, 10 * PAGE) == 7
        assert rig.violations == []
        assert rig.injector.fired("pmap.purge.duplicate")

    def test_skipping_dma_read_preparation_gives_device_stale_data(self):
        rig = Rig("pmap.dma_read_prep.skip")
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 42)
        rig.pmap.prepare_dma_read(3)            # injected away
        rig.machine.dma.dma_read(3)
        assert rig.violations
        assert rig.violations[0].kind == "dma-read"
        [record] = rig.injector.records("pmap.dma_read_prep.skip")
        assert record.consequential, "memory truly lagged program order"

    def test_skipping_dma_write_preparation_shadows_device_data(self):
        rig = Rig("pmap.dma_write_prep.skip")
        rig.enter(1, 10, 3, AccessKind.READ)
        rig.machine.read(1, 10 * PAGE)          # resident, clean
        fresh = np.full(1024, 9, dtype=np.uint64)
        rig.pmap.prepare_dma_write(3)           # injected away
        rig.machine.dma.dma_write(3, fresh)
        rig.machine.read(1, 10 * PAGE)          # old cached value shadows
        assert rig.violations
        assert rig.violations[0].kind == "cpu-read"
        [record] = rig.injector.records("pmap.dma_write_prep.skip")
        assert record.consequential

    def test_skipping_dma_write_purge_overwrites_device_data(self):
        # The other DMA-write hazard: a dirty line written back *after*
        # the device's transfer destroys the device data in memory.
        rig = Rig("pmap.flush.drop", "pmap.purge.drop")
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 1)      # dirty line for frame 3
        rig.pmap.prepare_dma_write(3)           # purge injected away
        rig.machine.dma.dma_write(3, np.full(1024, 8, dtype=np.uint64))
        # Force the (zombie) dirty line out by cache pressure: its
        # write-back lands on top of the device data.
        span = rig.machine.dcache.geo.way_span
        rig.enter(1, 10 + span // PAGE, 4, AccessKind.WRITE)
        rig.machine.write(1, (10 + span // PAGE) * PAGE, 2)
        rig.pmap.prepare_dma_read(3)
        rig.machine.dma.dma_read(3)
        assert rig.violations

    def test_never_downgrading_protections_hides_transitions(self):
        # Sabotage stanza 6 so protections are always READ_WRITE: accesses
        # stop faulting, so the algorithm never runs and staleness leaks.
        # (No injection point: protection updates are not a single
        # droppable action but a policy decision; sabotage the callback.)
        rig = Rig()
        original = rig.pmap._set_protection
        rig.pmap.engine._protect = (
            lambda mapping, prot: original(mapping, Prot.READ_WRITE))
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.enter(1, 11, 3, AccessKind.READ)
        rig.machine.write(1, 10 * PAGE, 1)      # dirty in cache page only
        rig.machine.read(1, 11 * PAGE)          # no fault: fills stale memory
        assert rig.violations
        assert rig.violations[0].kind == "cpu-read"

    def test_skipping_modified_bit_sync_loses_redirty(self):
        # (No injection point either: Section 4.1's modified-bit sync is a
        # hardware/pmap contract, not a runtime consistency action.)
        rig = Rig()
        rig.pmap.sync_modified = _noop          # sabotage: Section 4.1 off
        rig.enter(1, 10, 3, AccessKind.WRITE)
        rig.machine.write(1, 10 * PAGE, 1)
        rig.pmap.prepare_dma_read(3)
        rig.machine.dma.dma_read(3)
        rig.machine.write(1, 10 * PAGE, 2)      # mapping still writable
        rig.pmap.prepare_dma_read(3)            # thinks the page is clean
        rig.machine.dma.dma_read(3)
        assert rig.violations
        assert rig.violations[0].kind == "dma-read"

    def test_injection_is_scoped_by_pause(self):
        # The same plan does nothing while paused: the witness stays clean.
        rig = Rig("pmap.flush.drop")
        with rig.injector.paused():
            rig.enter(1, 10, 3, AccessKind.WRITE)
            rig.enter(1, 11, 3, AccessKind.READ)
            rig.machine.write(1, 10 * PAGE, 42)
            assert rig.machine.read(1, 11 * PAGE) == 42
        assert rig.violations == []
        assert rig.injector.audit == []
