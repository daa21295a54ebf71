"""Property-based tests for the coherent-cluster extension."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import Cache
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, Reason
from tests.hw.smp_helpers import dirty_copies, on_cpu

PAGE = 4096


def make_cluster(n_cpus):
    geo = CacheGeometry(size=8 * 1024)
    mem = PhysicalMemory(8, PAGE)
    return CoherentCluster(n_cpus, geo, mem, CostModel(), Clock(),
                           Counters()), geo, mem


aligned_ops = st.lists(
    st.tuples(st.integers(0, 2),        # cpu
              st.integers(0, 127),      # word within the first page
              st.integers(0, 2),        # which aligned window
              st.integers(0, 2**30),    # value
              st.booleans()),           # write?
    min_size=1, max_size=60)


class TestCoherentClusterProperties:
    @given(aligned_ops)
    @settings(max_examples=150)
    def test_aligned_sharing_matches_flat_reference(self, ops):
        cluster, geo, _ = make_cluster(3)
        reference = {}
        for cpu, word, window, value, is_write in ops:
            paddr = word * 4
            vaddr = paddr + window * geo.way_span
            if is_write:
                on_cpu(cluster, cpu).write(vaddr, paddr, value)
                reference[paddr] = value
            else:
                assert on_cpu(cluster, cpu).read(vaddr, paddr) \
                    == reference.get(paddr, 0)

    @given(aligned_ops)
    @settings(max_examples=150)
    def test_single_dirty_copy_per_equivalent_line(self, ops):
        # The hardware invariant Section 3.3 relies on: the physical tags
        # within the distributed set are unique, dirty in at most one.
        cluster, geo, _ = make_cluster(3)
        touched = set()
        for cpu, word, window, value, is_write in ops:
            paddr = word * 4
            vaddr = paddr + window * geo.way_span
            if is_write:
                on_cpu(cluster, cpu).write(vaddr, paddr, value)
            else:
                on_cpu(cluster, cpu).read(vaddr, paddr)
            set_idx = geo.set_index(vaddr)
            tag = paddr // geo.line_size
            touched.add((set_idx, tag))
            for s, t in touched:
                assert dirty_copies(cluster, s, t) <= 1

    @given(aligned_ops)
    @settings(max_examples=60)
    def test_cluster_flush_syncs_memory(self, ops):
        cluster, geo, mem = make_cluster(3)
        reference = {}
        for cpu, word, window, value, is_write in ops:
            paddr = word * 4
            vaddr = paddr + window * geo.way_span
            if is_write:
                on_cpu(cluster, cpu).write(vaddr, paddr, value)
                reference[paddr] = value
            else:
                on_cpu(cluster, cpu).read(vaddr, paddr)
        cluster.flush_page_frame(0, 0, Reason.EXPLICIT)
        for paddr, value in reference.items():
            assert mem.read_word(paddr) == value


# --- 1-CPU degeneracy -------------------------------------------------------
#
# A cluster of one must be the uniprocessor: same data, same cycle count,
# same counters.  Anything the coherence layer adds on N=1 is overhead the
# paper's baseline never paid.

mixed_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "read_run", "write_run",
                               "flush", "purge"]),
              st.integers(0, 100),      # word within the first page
              st.integers(0, 2),        # aligned window
              st.integers(0, 2**30)),   # value / run length seed
    min_size=1, max_size=50)


def drive(target, ops, geo):
    """Apply one op list to a bare Cache or a cluster (on its CPU 0)."""
    observed = []
    for op, word, window, value in ops:
        paddr = word * 4
        vaddr = paddr + window * geo.way_span
        if op == "read":
            observed.append(target.read(vaddr, paddr))
        elif op == "write":
            target.write(vaddr, paddr, value)
        elif op == "read_run":
            observed.extend(
                int(v) for v in
                target.read_run(vaddr, paddr, 1 + value % 8))
        elif op == "write_run":
            target.write_run(vaddr, paddr, [value, value ^ 1, value ^ 2])
        elif op == "flush":
            target.flush_page_frame(0, 0, Reason.EXPLICIT)
        else:
            target.purge_page_frame(0, 0, Reason.EXPLICIT)
    return observed


class TestUniprocessorDegeneracy:
    @given(mixed_ops)
    @settings(max_examples=100, deadline=None)
    def test_one_cpu_cluster_is_bit_identical_to_a_bare_cache(self, ops):
        geo = CacheGeometry(size=8 * 1024)
        flat_mem = PhysicalMemory(8, PAGE)
        flat_clock, flat_counters = Clock(), Counters()
        flat = Cache(geo, flat_mem, CostModel(), flat_clock, flat_counters)

        clu_mem = PhysicalMemory(8, PAGE)
        clu_clock, clu_counters = Clock(), Counters()
        cluster = CoherentCluster(1, geo, clu_mem, CostModel(), clu_clock,
                                  clu_counters)

        assert drive(flat, ops, geo) == drive(cluster, ops, geo)
        # Same data everywhere -- cached state included, so flush both
        # and compare raw memory.
        flat.flush_page_frame(0, 0, Reason.EXPLICIT)
        cluster.flush_page_frame(0, 0, Reason.EXPLICIT)
        for word in range(128):
            assert flat_mem.read_word(word * 4) \
                == clu_mem.read_word(word * 4)
        # Same simulated time, same aggregate counters; the coherence
        # counters must not have moved (there is no peer to snoop).
        assert flat_clock.cycles == clu_clock.cycles
        assert flat_counters.snapshot() == clu_counters.snapshot()
        assert clu_counters.coherence_invalidations == 0
        assert clu_counters.coherence_writebacks == 0
