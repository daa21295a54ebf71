"""The Section 3.3 multi-CPU ring workload: correctness, determinism,
and the aligned-vs-unaligned claim."""

import pytest

from repro.hw.params import small_machine
from repro.hw.stats import FaultKind
from repro.kernel.kernel import Kernel
from repro.workloads.smp import run_smp_ring


def make_kernel(n_cpus, **overrides):
    overrides.setdefault("phys_pages", 192)
    return Kernel(config=small_machine(n_cpus=n_cpus, **overrides),
                  buffer_cache_pages=16)


class TestSmpRing:
    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize("aligned", [True, False])
    def test_payload_integrity(self, n_cpus, aligned):
        result = run_smp_ring(make_kernel(n_cpus), records_per_pair=40,
                              aligned=aligned)
        expected = sum(range(40)) & 0xFFFFFFFF
        assert result.records == result.pairs * 40
        assert result.checksum == (expected * result.pairs) & 0xFFFFFFFF

    def test_deterministic(self):
        def run():
            r = run_smp_ring(make_kernel(4), records_per_pair=40,
                             aligned=True)
            return r.to_dict()

        assert run() == run()

    def test_aligned_sharing_rides_the_snoop_protocol(self):
        result = run_smp_ring(make_kernel(4), records_per_pair=40,
                              aligned=True)
        assert result.coherence_invalidations > 0
        assert result.coherence_writebacks > 0

    def test_unaligned_sharing_never_snoop_hits(self):
        # The paper's point: aliases in different sets are invisible to
        # the bus, so the software rules keep doing all the work.
        result = run_smp_ring(make_kernel(4), records_per_pair=40,
                              aligned=False)
        assert result.coherence_invalidations == 0
        assert result.coherence_writebacks == 0
        assert result.consistency_faults > 0

    def test_unaligned_costs_more_at_every_cpu_count(self):
        for n in (1, 2, 4):
            aligned = run_smp_ring(make_kernel(n), records_per_pair=40,
                                   aligned=True)
            unaligned = run_smp_ring(make_kernel(n), records_per_pair=40,
                                     aligned=False)
            assert (unaligned.cycles_per_record
                    > aligned.cycles_per_record), f"N={n}"
            assert (unaligned.consistency_faults
                    > aligned.consistency_faults), f"N={n}"

    def test_uniprocessor_pair_shares_cpu_zero(self):
        result = run_smp_ring(make_kernel(1), records_per_pair=20)
        assert result.n_cpus == 1
        assert result.pairs == 1
        assert result.coherence_invalidations == 0

