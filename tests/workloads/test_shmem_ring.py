"""Tests for the shared-memory ring workload."""

import pytest

from repro.hw.params import MachineConfig
from repro.kernel.kernel import Kernel
from repro.policy import get_policy
from repro.vm.policy import CONFIG_F, CONFIG_GLOBAL, OLD_SYSTEM
from repro.workloads.shmem_ring import run_ring


def make_kernel(policy=CONFIG_F):
    return Kernel(policy=policy, config=MachineConfig(phys_pages=128))


class TestCorrectness:
    def test_every_record_arrives_in_order(self):
        result = run_ring(make_kernel(), records=100, aligned=True)
        # checksum of 0..99 == sum
        assert result.checksum == sum(range(100))

    def test_unaligned_ring_also_correct(self):
        result = run_ring(make_kernel(), records=100, aligned=False)
        assert result.checksum == sum(range(100))

    def test_wraparound(self):
        # capacity = 2 pages x 128 slots; push well past it
        result = run_ring(make_kernel(), records=600, aligned=True)
        assert result.checksum == sum(range(600)) & 0xFFFFFFFF

    @pytest.mark.parametrize("policy",
                             [OLD_SYSTEM, CONFIG_F, CONFIG_GLOBAL,
                              get_policy("Sun")],
                             ids=["old", "new", "global", "sun"])
    def test_correct_under_every_policy(self, policy):
        kernel = make_kernel(policy)
        result = run_ring(kernel, records=80, aligned=False)
        assert result.checksum == sum(range(80))
        assert kernel.machine.oracle.clean


class TestPerformanceShape:
    def test_aligned_ring_is_fault_free_after_warmup(self):
        result = run_ring(make_kernel(), records=300, aligned=True)
        # a handful of warmup transitions at most
        assert result.consistency_faults <= 6

    def test_unaligned_ring_ping_pongs(self):
        aligned = run_ring(make_kernel(), records=300, aligned=True)
        unaligned = run_ring(make_kernel(), records=300, aligned=False)
        assert unaligned.consistency_faults > 100
        assert unaligned.cycles_per_record > 5 * aligned.cycles_per_record

    def test_global_address_space_rings_always_align(self):
        kernel = make_kernel(CONFIG_GLOBAL)
        # even when the caller *asks* for an unaligned placement, the
        # global model maps the object at one shared address
        result = run_ring(kernel, records=200, aligned=False)
        assert result.consistency_faults <= 6

    def test_uncached_beats_trap_path_for_unaligned_sharing(self):
        # Sun's uncached fallback is the better mechanism for genuinely
        # unaligned ping-pong sharing: no faults, memory-speed accesses.
        trap = run_ring(make_kernel(CONFIG_F), records=200, aligned=False)
        uncached = run_ring(make_kernel(get_policy("Sun")), records=200,
                            aligned=False)
        assert uncached.consistency_faults < trap.consistency_faults / 10
        assert uncached.cycles < trap.cycles
