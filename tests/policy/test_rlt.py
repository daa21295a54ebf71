"""The reverse-lookup-table policy: exact synonym invalidation.

An RLT (arXiv 2108.00444) maps each physical frame to the lines actually
resident, so consistency management touches only what exists: a flush or
purge of a frame with no resident lines is skipped outright (after a
charged lookup), and performed operations pay per resident line instead
of scanning the whole cache-page window.
"""

import pytest

from repro.analysis.experiments import evaluation_machine
from repro.conformance import ConformanceMonitor
from repro.hw.stats import FaultKind, Reason
from repro.kernel.kernel import Kernel
from repro.policy import get_policy
from repro.workloads.microbench import run_alias_write_loop


def make_kernel(policy="rlt", **overrides):
    return Kernel(policy=policy, config=evaluation_machine(**overrides))


class TestSetup:
    def test_exact_management_armed_on_the_dcache(self):
        kernel = make_kernel()
        assert kernel.machine.dcache.exact_management
        assert not kernel.machine.icache.exact_management

    def test_exact_management_armed_per_cpu_on_a_cluster(self):
        kernel = make_kernel(n_cpus=2)
        for cache in kernel.machine.dcaches:
            assert cache.exact_management

    def test_flags_extend_f(self):
        rlt = get_policy("rlt")
        f = get_policy("F")
        assert rlt.origin == "external"
        assert rlt.flags.derive("F", f.flags.description) == f.flags


class TestExactInvalidation:
    def test_skips_operations_on_non_resident_frames(self):
        kernel = make_kernel()
        counters = kernel.machine.counters
        task = kernel.create_task("t")
        vpage = task.allocate_anon(1)
        task.write(vpage, 0, 7)
        frame = kernel.pmap.page_table(task.asid).lookup(vpage).ppage
        cache_page = task.space.cache_page_of(vpage)

        # A frame the cache has never seen: the consult proves zero
        # residency, the operation is skipped, the lookup is charged.
        other = (cache_page + 1) % kernel.pmap.ncp
        before_clock = kernel.machine.clock.cycles
        before_flushes = counters.total_flushes()
        kernel.pmap._flush_cache_page(other, frame, Reason.EXPLICIT)
        assert counters.rlt_skipped_ops >= 1
        assert counters.rlt_lookups >= 1
        assert counters.total_flushes() == before_flushes
        assert (kernel.machine.clock.cycles - before_clock
                == kernel.machine.config.cost.rlt_lookup)

        # The resident window is not skippable: the flush happens.
        kernel.pmap._flush_cache_page(cache_page, frame, Reason.EXPLICIT)
        assert counters.total_flushes() == before_flushes + 1

    def test_unaligned_loop_matches_f_but_skips_dead_purges(self):
        results = {}
        for name in ("F", "rlt"):
            kernel = make_kernel(name)
            results[name] = (run_alias_write_loop(kernel, 800, aligned=False),
                             kernel.machine.counters)
        f_result, _ = results["F"]
        rlt_result, rlt_counters = results["rlt"]
        # Same faulting behaviour — the RLT changes what each fault
        # *costs*, not when faults happen.
        assert rlt_result.consistency_faults == f_result.consistency_faults
        assert rlt_counters.rlt_skipped_ops > 0
        assert rlt_result.page_purges < f_result.page_purges
        assert rlt_result.cycles < f_result.cycles

    def test_lookup_cycles_are_charged(self):
        kernel = make_kernel()
        run_alias_write_loop(kernel, 200, aligned=False)
        counters = kernel.machine.counters
        assert counters.rlt_lookups >= counters.rlt_skipped_ops > 0


class TestConformance:
    def test_lockstep_shadow_stays_green(self):
        kernel = make_kernel()
        monitor = ConformanceMonitor(kernel).attach()
        try:
            run_alias_write_loop(kernel, 400, aligned=False)
            run_alias_write_loop(kernel, 100, aligned=True)
        finally:
            monitor.detach()
        assert monitor.ok, [str(d) for d in monitor.divergences]
        assert monitor.events_seen > 0
