"""Tests for the Section 3.3 coherent-multiprocessor extension."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, Reason
from tests.hw.smp_helpers import dirty_copies, on_cpu, resident_copies

PAGE = 4096


def make_cluster(n_cpus=2, size=16 * 1024):
    geo = CacheGeometry(size=size)
    mem = PhysicalMemory(16, PAGE)
    cluster = CoherentCluster(n_cpus, geo, mem, CostModel(), Clock(),
                              Counters())
    return cluster, mem


def state(cluster):
    """Every per-CPU tag and dirty bit, the clock and the counters."""
    return ([c._tags.tolist() for c in cluster.caches],
            [c._dirty.tolist() for c in cluster.caches],
            cluster.caches[0].clock.cycles, cluster.counters.snapshot())


class TestCoherenceProtocol:
    def test_write_invalidates_remote_copies(self):
        cluster, mem = make_cluster()
        on_cpu(cluster, 0).read(0, 0)       # cpu0 caches the line
        on_cpu(cluster, 1).write(0, 0, 42)  # cpu1 writes: cpu0's copy dies
        set_idx = cluster.geo.set_index(0)
        assert resident_copies(cluster, set_idx, 0) == 1
        assert cluster.counters.coherence_invalidations == 1

    def test_read_sees_remote_dirty_data(self):
        cluster, mem = make_cluster()
        on_cpu(cluster, 0).write(0, 0, 7)   # dirty on cpu0 only
        # The snoop writes cpu0's line back; cpu1 fills the fresh value.
        assert on_cpu(cluster, 1).read(0, 0) == 7
        assert cluster.counters.coherence_writebacks == 1

    def test_single_writer_invariant(self):
        cluster, mem = make_cluster(n_cpus=3)
        set_idx = cluster.geo.set_index(0)
        for cpu in (0, 1, 2, 1, 0):
            on_cpu(cluster, cpu).write(0, 0, cpu)
            assert dirty_copies(cluster, set_idx, 0) <= 1

    def test_ping_pong_values_always_fresh(self):
        cluster, mem = make_cluster()
        for i in range(20):
            on_cpu(cluster, i % 2).write(0, 0, i)
            assert on_cpu(cluster, (i + 1) % 2).read(0, 0) == i

    def test_remote_dirty_written_back_before_local_write(self):
        cluster, mem = make_cluster()
        on_cpu(cluster, 0).write(4, 4, 11)  # cpu0 dirties word 1 of the line
        on_cpu(cluster, 1).write(0, 0, 22)  # cpu1 writes word 0
        # cpu1's fill must have observed cpu0's word: read it via cpu1.
        assert on_cpu(cluster, 1).read(4, 4) == 11


    def test_empty_run_changes_nothing(self):
        cluster, mem = make_cluster()
        on_cpu(cluster, 1).write(0, 0, 7)   # dirty on cpu1, in the runs' set
        before = state(cluster)
        assert on_cpu(cluster, 0).read_run(0, PAGE, 0).size == 0
        on_cpu(cluster, 0).write_run(0, PAGE, [])
        assert state(cluster) == before

    def test_accesses_follow_current_cpu(self):
        cluster, mem = make_cluster()
        cluster.current_cpu = 1
        cluster.write(0, 0, 9)
        cluster.write_run(64, 64, [1, 2])
        cluster.write_page(PAGE, PAGE, list(range(PAGE // 4)))
        assert not cluster.caches[0]._dirty.any()
        cluster.current_cpu = 0
        assert cluster.read(0, 0) == 9
        assert list(cluster.read_run(64, 64, 2)) == [1, 2]
        assert list(cluster.read_page(PAGE, PAGE)) == list(range(PAGE // 4))
        # Each read pulled a dirty cpu1 line back through the snoop.
        assert cluster.counters.coherence_writebacks > 0
        assert cluster.caches[0]._dirty.sum() == 0


class TestUnchangedRules:
    def test_aligned_sharing_needs_no_software_management(self):
        # Hardware resolves aligned (equivalent-line) sharing entirely: a
        # random multi-CPU trace through aligned addresses matches a flat
        # reference with no flushes or purges.
        cluster, mem = make_cluster(n_cpus=3)
        span = cluster.geo.way_span
        rng = random.Random(7)
        reference = {}
        for _ in range(400):
            cpu = rng.randrange(3)
            word = rng.randrange(64)
            paddr = word * 4
            vaddr = paddr + span * rng.randrange(3)   # aligned windows
            if rng.random() < 0.5:
                value = rng.randrange(1 << 30)
                on_cpu(cluster, cpu).write(vaddr, paddr, value)
                reference[paddr] = value
            else:
                assert on_cpu(cluster, cpu).read(vaddr, paddr) \
                    == reference.get(paddr, 0)

    def test_unaligned_aliases_remain_a_software_problem(self):
        # Section 3.3: the transition rules apply unchanged — hardware
        # does NOT resolve unaligned aliases even on the multiprocessor.
        cluster, mem = make_cluster()
        on_cpu(cluster, 0).write(0, 0, 5)           # cpu0, cache page 0
        stale = on_cpu(cluster, 1).read(PAGE, 0)    # cpu1, unaligned alias
        assert stale != 5                  # the uniprocessor hazard persists

    def test_software_flush_resolves_it_cluster_wide(self):
        # ... and the unchanged Table 2 action (flush the dirty line)
        # applied to the distributed cache restores consistency.
        cluster, mem = make_cluster()
        on_cpu(cluster, 0).write(0, 0, 5)
        cluster.flush_page_frame(0, 0, Reason.ALIAS_READ)
        assert on_cpu(cluster, 1).read(PAGE, 0) == 5

    def test_cluster_purge_drops_every_copy(self):
        cluster, mem = make_cluster(n_cpus=3)
        for cpu in range(3):
            on_cpu(cluster, cpu).read(0, 0)
        dropped = cluster.purge_page_frame(0, 0, Reason.EXPLICIT)
        assert dropped == 3
        set_idx = cluster.geo.set_index(0)
        assert resident_copies(cluster, set_idx, 0) == 0


class TestConfiguration:
    def test_needs_a_cpu(self):
        geo = CacheGeometry(size=16 * 1024)
        mem = PhysicalMemory(4, PAGE)
        with pytest.raises(ConfigurationError):
            CoherentCluster(0, geo, mem, CostModel(), Clock(), Counters())

    def test_one_cache_per_cpu(self):
        cluster, _ = make_cluster(n_cpus=4)
        assert [c.name for c in cluster.caches] \
            == ["cpu0.dcache", "cpu1.dcache", "cpu2.dcache", "cpu3.dcache"]
        assert cluster.name == "dcache"
