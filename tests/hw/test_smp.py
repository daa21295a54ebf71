"""Tests for the Section 3.3 coherent-multiprocessor extension."""

import random

import pytest

from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, Reason

PAGE = 4096


def make_cluster(n_cpus=2, size=16 * 1024):
    geo = CacheGeometry(size=size)
    mem = PhysicalMemory(16, PAGE)
    cluster = CoherentCluster(n_cpus, geo, mem, CostModel(), Clock(),
                              Counters())
    return cluster, mem


class TestCoherenceProtocol:
    def test_write_invalidates_remote_copies(self):
        cluster, mem = make_cluster()
        cluster.read(0, 0, 0)           # cpu0 caches the line
        cluster.write(1, 0, 0, 42)      # cpu1 writes: cpu0's copy dies
        set_idx = cluster.geometry.set_index(0)
        assert cluster.resident_copies(set_idx, 0) == 1
        assert cluster.coherence_invalidations == 1

    def test_read_sees_remote_dirty_data(self):
        cluster, mem = make_cluster()
        cluster.write(0, 0, 0, 7)       # dirty on cpu0 only
        assert cluster.read(1, 0, 0) == 7   # snoop writes back, cpu1 fills
        assert cluster.coherence_writebacks == 1

    def test_single_writer_invariant(self):
        cluster, mem = make_cluster(n_cpus=3)
        set_idx = cluster.geometry.set_index(0)
        for cpu in (0, 1, 2, 1, 0):
            cluster.write(cpu, 0, 0, cpu)
            assert cluster.dirty_copies(set_idx, 0) <= 1

    def test_ping_pong_values_always_fresh(self):
        cluster, mem = make_cluster()
        for i in range(20):
            cluster.write(i % 2, 0, 0, i)
            assert cluster.read((i + 1) % 2, 0, 0) == i

    def test_remote_dirty_written_back_before_local_write(self):
        cluster, mem = make_cluster()
        cluster.write(0, 4, 4, 11)      # cpu0 dirties word 1 of the line
        cluster.write(1, 0, 0, 22)      # cpu1 writes word 0
        # cpu1's fill must have observed cpu0's word: read it via cpu1.
        assert cluster.read(1, 4, 4) == 11


    def test_empty_run_changes_nothing(self):
        cluster, mem = make_cluster()
        cluster.write(1, 0, 0, 7)       # dirty on cpu1, in the runs' set
        before = ([c._tags.tolist() for c in cluster.caches],
                  [c._dirty.tolist() for c in cluster.caches],
                  cluster.clock.cycles, cluster.counters.snapshot())
        assert cluster.read_run(0, 0, PAGE, 0).size == 0
        cluster.write_run(0, 0, PAGE, [])
        assert ([c._tags.tolist() for c in cluster.caches],
                [c._dirty.tolist() for c in cluster.caches],
                cluster.clock.cycles, cluster.counters.snapshot()) == before


class TestUnchangedRules:
    def test_aligned_sharing_needs_no_software_management(self):
        # Hardware resolves aligned (equivalent-line) sharing entirely: a
        # random multi-CPU trace through aligned addresses matches a flat
        # reference with no flushes or purges.
        cluster, mem = make_cluster(n_cpus=3)
        span = cluster.geometry.way_span
        rng = random.Random(7)
        reference = {}
        for _ in range(400):
            cpu = rng.randrange(3)
            word = rng.randrange(64)
            paddr = word * 4
            vaddr = paddr + span * rng.randrange(3)   # aligned windows
            if rng.random() < 0.5:
                value = rng.randrange(1 << 30)
                cluster.write(cpu, vaddr, paddr, value)
                reference[paddr] = value
            else:
                assert cluster.read(cpu, vaddr, paddr) \
                    == reference.get(paddr, 0)

    def test_unaligned_aliases_remain_a_software_problem(self):
        # Section 3.3: the transition rules apply unchanged — hardware
        # does NOT resolve unaligned aliases even on the multiprocessor.
        cluster, mem = make_cluster()
        cluster.write(0, 0, 0, 5)          # cpu0, cache page 0
        stale = cluster.read(1, PAGE, 0)   # cpu1, unaligned alias
        assert stale != 5                  # the uniprocessor hazard persists

    def test_software_flush_resolves_it_cluster_wide(self):
        # ... and the unchanged Table 2 action (flush the dirty line)
        # applied to the distributed cache restores consistency.
        cluster, mem = make_cluster()
        cluster.write(0, 0, 0, 5)
        cluster.flush_page_frame(0, 0, Reason.ALIAS_READ)
        assert cluster.read(1, PAGE, 0) == 5

    def test_cluster_purge_drops_every_copy(self):
        cluster, mem = make_cluster(n_cpus=3)
        for cpu in range(3):
            cluster.read(cpu, 0, 0)
        dropped = cluster.purge_page_frame(0, 0, Reason.EXPLICIT)
        assert dropped == 3
        set_idx = cluster.geometry.set_index(0)
        assert cluster.resident_copies(set_idx, 0) == 0


class TestConfiguration:
    def test_needs_a_cpu(self):
        from repro.errors import ConfigurationError
        geo = CacheGeometry(size=16 * 1024)
        mem = PhysicalMemory(4, PAGE)
        with pytest.raises(ConfigurationError):
            CoherentCluster(0, geo, mem, CostModel(), Clock(), Counters())

    def test_len(self):
        cluster, _ = make_cluster(n_cpus=4)
        assert len(cluster) == 4
