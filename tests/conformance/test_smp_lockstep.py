"""Lockstep conformance over a coherent cluster: one monitor, one shadow
per CPU's cache."""

import pytest

from repro.conformance.lockstep import ConformanceMonitor
from repro.core.states import MemoryOp
from repro.errors import ConformanceError
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.hw.params import small_machine
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import Scheduler
from repro.workloads.random_ops import AliasStressor
from repro.workloads.smp import run_smp_ring


def smp_kernel(n_cpus=2):
    return Kernel(config=small_machine(n_cpus=n_cpus, phys_pages=192),
                  buffer_cache_pages=24)


class TestConstruction:
    def test_one_shadow_per_cpu_sharing_coverage(self):
        kernel = smp_kernel(3)
        monitor = ConformanceMonitor(kernel)
        assert [s.cpu for s in monitor.shadows] == [0, 1, 2]
        assert tuple(s.cache for s in monitor.shadows) == \
            kernel.machine.dcaches
        assert monitor.per_cpu_divergences() == {0: 0, 1: 0, 2: 0}
        # Every shadow records into the monitor's one coverage: a DMA
        # transfer fed to three CPUs' shadows counts each arc three times
        # as often as on one CPU.
        counts = {}
        for n in (1, 3):
            kernel = smp_kernel(n)
            with ConformanceMonitor(kernel) as monitor:
                kernel.machine.dma.dma_read(
                    kernel.machine.config.phys_pages - 1)
            counts[n] = monitor.coverage.to_dict()["counts"]
        assert counts[1]
        assert [(*c[:-1], c[-1] * 3) for c in counts[1]] == \
            [tuple(c) for c in counts[3]]

    def test_attach_detach_restores_dma(self):
        kernel = smp_kernel(3)
        dma = kernel.machine.dma
        originals = (dma.dma_read, dma.dma_write)
        monitor = ConformanceMonitor(kernel).attach()
        assert dma.dma_read is not originals[0]
        # DMA is wrapped once: one transfer reaches each shadow once
        dma.dma_read(kernel.machine.config.phys_pages - 1)
        assert [s.events_seen for s in monitor.shadows] == [1, 1, 1]
        assert all(s.events[-1].op is MemoryOp.DMA_READ
                   for s in monitor.shadows)
        monitor.detach()
        assert (dma.dma_read, dma.dma_write) == originals


class TestCleanShadowing:
    def test_alias_stressor_on_four_cpus_is_divergence_free(self):
        kernel = smp_kernel(4)
        stressor = AliasStressor(kernel, n_tasks=4, n_pages=4, seed=0)
        with ConformanceMonitor(kernel) as monitor:
            stressor.run(250)
        assert monitor.ok, monitor.divergences[:3]
        assert monitor.events_seen > 0
        assert monitor.per_cpu_divergences() == {0: 0, 1: 0, 2: 0, 3: 0}
        summary = monitor.summary()
        assert summary.divergences == 0
        assert 0 < summary.coverage_percent <= 100

    def test_smp_ring_shadows_clean(self):
        kernel = smp_kernel(2)
        with ConformanceMonitor(kernel) as monitor:
            run_smp_ring(kernel, records_per_pair=30, aligned=False)
        assert monitor.ok, monitor.divergences[:3]
        # both CPUs actually produced events
        assert all(s.events_seen > 0 for s in monitor.shadows)


class TestDivergenceAttribution:
    def _diverge(self, n_cpus=2, seed=11):
        """Drop every flush/purge on a cluster until the shadows notice;
        returns the recording monitor."""
        kernel = smp_kernel(n_cpus)
        kernel.machine.oracle.record_only = True
        injector = FaultInjector(
            FaultPlan(seed=0, rules=(FaultRule("pmap.flush.drop", rate=1.0),
                                     FaultRule("pmap.purge.drop", rate=1.0))),
            kernel.machine.clock)
        injector.attach_kernel(kernel)
        monitor = ConformanceMonitor(kernel, record_only=True).attach()
        stressor = AliasStressor(kernel, n_tasks=n_cpus, n_pages=4,
                                 seed=seed)
        try:
            stressor.run(200)
        finally:
            monitor.detach()
        return monitor

    def test_divergences_name_the_cpu(self):
        monitor = self._diverge()
        assert monitor.divergences, "dropped flushes must diverge"
        for divergence in monitor.divergences:
            assert divergence.cpu in (0, 1)
            assert f"cpu{divergence.cpu}:" in str(divergence)
        per_cpu = monitor.per_cpu_divergences()
        assert sum(per_cpu.values()) == len(monitor.divergences)

    def test_raise_mode_carries_the_cpu(self):
        kernel = smp_kernel(2)
        kernel.machine.oracle.record_only = True
        injector = FaultInjector(
            FaultPlan(seed=0, rules=(FaultRule("pmap.flush.drop", rate=1.0),
                                     FaultRule("pmap.purge.drop", rate=1.0))),
            kernel.machine.clock)
        injector.attach_kernel(kernel)
        monitor = ConformanceMonitor(kernel).attach()
        stressor = AliasStressor(kernel, n_tasks=2, n_pages=4, seed=11)
        with pytest.raises(ConformanceError) as excinfo:
            stressor.run(200)
        monitor.detach()
        assert excinfo.value.cpu in (0, 1)
        assert f"cpu{excinfo.value.cpu}" in str(excinfo.value)


class TestUniprocessorMonitorUnchanged:
    def test_classic_monitor_reports_no_cpu(self):
        kernel = Kernel(config=small_machine(phys_pages=192),
                        buffer_cache_pages=24)
        stressor = AliasStressor(kernel, n_tasks=2, n_pages=3, seed=2)
        with ConformanceMonitor(kernel) as monitor:
            stressor.run(100)
        assert monitor.ok
        assert [s.cpu for s in monitor.shadows] == [None]
        assert monitor.per_cpu_divergences() == {}
