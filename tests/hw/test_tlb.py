"""Tests for the TLB."""

import pytest

from repro.faults.injector import FaultInjector, FaultPlan, FaultRule
from repro.hw.params import CostModel
from repro.hw.stats import Clock, Counters
from repro.hw.tlb import Tlb
from repro.prot import Prot


@pytest.fixture
def tlb():
    return Tlb(entries=4, cost=CostModel(), clock=Clock(),
               counters=Counters())


class TestLookup:
    def test_miss_then_hit(self, tlb):
        assert tlb.lookup(1, 10) is None
        tlb.insert(1, 10, 5, Prot.READ)
        entry = tlb.lookup(1, 10)
        assert entry.ppage == 5
        assert entry.prot is Prot.READ
        assert type(entry.rights) is int and entry.rights == Prot.READ
        assert tlb.counters.tlb_misses == 1
        assert tlb.counters.tlb_hits == 1

    def test_asids_are_distinct(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        assert tlb.lookup(2, 10) is None

    def test_miss_charges_refill_cycles(self, tlb):
        tlb.lookup(1, 10)
        assert tlb.clock.cycles == CostModel().tlb_miss


class TestReplacement:
    def test_fifo_eviction_at_capacity(self, tlb):
        for vpage in range(5):
            tlb.insert(1, vpage, vpage, Prot.READ)
        assert len(tlb) == 4
        assert tlb.lookup(1, 0) is None       # oldest evicted
        assert tlb.lookup(1, 4) is not None

    def test_reinsert_updates_in_place(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.insert(1, 10, 5, Prot.READ_WRITE)
        assert len(tlb) == 1
        assert tlb.lookup(1, 10).prot is Prot.READ_WRITE


class TestInvalidation:
    def test_single_entry(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.invalidate(1, 10)
        assert tlb.lookup(1, 10) is None

    def test_invalidate_missing_is_noop(self, tlb):
        tlb.invalidate(1, 99)

    def test_invalidate_asid(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.insert(1, 11, 6, Prot.READ)
        tlb.insert(2, 10, 7, Prot.READ)
        tlb.invalidate_asid(1)
        assert tlb.lookup(1, 10) is None
        assert tlb.lookup(1, 11) is None
        assert tlb.lookup(2, 10) is not None

    def test_invalidate_all(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.insert(2, 11, 6, Prot.READ)
        tlb.invalidate_all()
        assert len(tlb) == 0

    def test_contains(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        assert (1, 10) in tlb
        assert (1, 11) not in tlb


class TestCorruptionInvalidatesMicroCache:
    """Regression: an injected TLB-entry corruption must invalidate the
    one-entry micro-cache like every other mutator — otherwise the
    corrupted translation could be served one extra time from the
    micro-cache after parity already rejected it."""

    def _armed(self, tlb, max_fires=1):
        plan = FaultPlan(seed=0, rules=(
            FaultRule("tlb.entry.corrupt", rate=1.0, max_fires=max_fires),))
        tlb.injector = FaultInjector(plan, tlb.clock)
        return tlb

    def test_corruption_clears_micro_cache(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        assert tlb.lookup(1, 10) is not None   # primes the micro-cache
        assert tlb._last_key == (1, 10)
        self._armed(tlb)
        assert tlb.lookup(1, 10) is None       # parity rejects the entry
        assert tlb._last_key is None
        assert tlb._last_entry is None

    def test_no_stale_serve_after_recovery(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.lookup(1, 10)
        self._armed(tlb)
        assert tlb.lookup(1, 10) is None       # injected corruption fires
        # The budget is spent; the next lookup must be a genuine miss
        # (a refill walk), never a micro-cache serve of the dead entry.
        hits_before = tlb.counters.tlb_hits
        assert tlb.lookup(1, 10) is None
        assert tlb.counters.tlb_hits == hits_before
        assert tlb.counters.tlb_parity_recoveries == 1

    def test_recovery_is_charged_and_counted(self, tlb):
        tlb.insert(1, 10, 5, Prot.READ)
        tlb.lookup(1, 10)
        cycles_before = tlb.clock.cycles
        self._armed(tlb)
        tlb.lookup(1, 10)
        cost = CostModel()
        assert (tlb.clock.cycles - cycles_before
                == cost.tlb_parity_recovery + cost.tlb_miss)
        assert tlb.counters.tlb_parity_recoveries == 1
