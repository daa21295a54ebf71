"""Tests for counters, the clock, and reason-tagged accounting."""

import copy
import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.hw.stats import (BREAKDOWNS, Breakdown, Clock, Counters,
                             FaultKind, Reason)
from repro.trace.format import REASON_INDEX, REASONS


class TestClock:
    def test_advances(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.cycles == 15

    def test_accepts_numpy_integers(self):
        # The vectorized paths compute cycle costs as numpy scalars.
        clock = Clock()
        clock.advance(np.int64(7))
        clock.advance(np.uint64(3))
        assert clock.cycles == 10
        assert isinstance(clock.cycles, int)

    def test_zero_delta_is_fine(self):
        clock = Clock()
        clock.advance(0)
        assert clock.cycles == 0

    @pytest.mark.parametrize("bad", [-1, -100, np.int64(-5)])
    def test_rejects_negative_deltas(self, bad):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(bad)
        assert clock.cycles == 0

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "10",
                                     None, True])
    def test_rejects_non_integer_deltas(self, bad):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(bad)
        assert clock.cycles == 0


class TestReasonTaggedAccounting:
    def test_flush_attribution(self):
        counters = Counters()
        counters.record_flush("dcache", Reason.DMA_READ, 100)
        counters.record_flush("dcache", Reason.D_TO_I_COPY, 50)
        counters.record_flush("icache", Reason.DMA_READ, 10)
        assert counters.total_flushes() == 3
        assert counters.total_flushes("dcache") == 2
        assert counters.total_flushes(reason=Reason.DMA_READ) == 2
        assert counters.total_flushes("dcache", Reason.DMA_READ) == 1
        assert counters.total_flush_cycles("dcache") == 150

    def test_purge_attribution(self):
        counters = Counters()
        counters.record_purge("dcache", Reason.NEW_MAPPING, 30)
        counters.record_purge("dcache", Reason.NEW_MAPPING, 40)
        assert counters.total_purges() == 2
        assert counters.total_purge_cycles(
            "dcache", Reason.NEW_MAPPING) == 70

    def test_fault_attribution(self):
        counters = Counters()
        counters.record_fault(FaultKind.MAPPING, 300)
        counters.record_fault(FaultKind.CONSISTENCY, 300)
        counters.record_fault(FaultKind.CONSISTENCY, 300)
        assert counters.faults[FaultKind.CONSISTENCY] == 2
        assert counters.fault_cycles[FaultKind.MAPPING] == 300

    def test_snapshot_keys(self):
        snap = Counters().snapshot()
        for key in ("page_flushes", "page_purges", "mapping_faults",
                    "consistency_faults", "dma_reads", "dma_writes",
                    "d_to_i_copies", "write_backs"):
            assert key in snap
            assert snap[key] == 0

    def test_snapshot_includes_protection_and_recovery_counters(self):
        # These four used to be silently dropped, under-reporting chaos
        # runs in every table built from a snapshot.
        counters = Counters()
        counters.record_fault(FaultKind.PROTECTION, 300)
        counters.disk_retries = 2
        counters.tlb_parity_recoveries = 3
        counters.frames_quarantined = 1
        snap = counters.snapshot()
        assert snap["protection_faults"] == 1
        assert snap["disk_retries"] == 2
        assert snap["tlb_parity_recoveries"] == 3
        assert snap["frames_quarantined"] == 1

    def test_snapshot_is_complete(self):
        """Mutating any public Counters field or breakdown must change the
        snapshot — i.e. every one is represented, so nothing can silently
        drop out of a table again."""
        baseline = Counters().snapshot()
        for f in dataclasses.fields(Counters):
            counters = Counters()
            setattr(counters, f.name, getattr(counters, f.name) + 1)
            assert counters.snapshot() != baseline, \
                f"Counters.{f.name} is not represented in snapshot()"
        # Each record_* call moves a count and its cycles twin, so the
        # snapshot must tell apart a call with cycles from one without.
        writes = {
            "page_flushes": lambda c: c.record_flush(
                "dcache", Reason.EXPLICIT, 0),
            "flush_cycles": lambda c: c.record_flush(
                "dcache", Reason.EXPLICIT, 5),
            "page_purges": lambda c: c.record_purge(
                "dcache", Reason.EXPLICIT, 0),
            "purge_cycles": lambda c: c.record_purge(
                "dcache", Reason.EXPLICIT, 5),
            "faults": lambda c: c.record_fault(FaultKind.PROTECTION, 0),
            "fault_cycles": lambda c: c.record_fault(
                FaultKind.PROTECTION, 5),
        }
        assert set(writes) == set(BREAKDOWNS)
        snapshots = {}
        for name, write in writes.items():
            counters = Counters()
            write(counters)
            assert getattr(counters, name), name
            snapshots[name] = counters.snapshot()
            assert snapshots[name] != baseline, \
                f"Counters.{name} is not represented in snapshot()"
        for count, cycles in (("page_flushes", "flush_cycles"),
                              ("page_purges", "purge_cycles"),
                              ("faults", "fault_cycles")):
            assert snapshots[count] != snapshots[cycles], \
                f"Counters.{cycles} is not represented in snapshot()"

    def test_every_reason_has_a_distinct_label(self):
        labels = {str(reason) for reason in Reason}
        assert len(labels) == len(list(Reason))

    def test_fault_kinds(self):
        assert {str(k) for k in FaultKind} == {
            "mapping", "consistency", "protection"}


class TestTallies:
    def test_enum_indices_are_the_trace_formats(self):
        """``index`` is declaration order, which the trace format fixes."""
        assert [r.index for r in Reason] == list(range(len(Reason)))
        assert {r: r.index for r in Reason} == REASON_INDEX
        assert REASONS == tuple(Reason)
        assert [k.index for k in FaultKind] == list(range(len(FaultKind)))

    def test_breakdowns_read_as_counters(self):
        counters = Counters()
        counters.record_flush("cpu3.dcache", Reason.DMA_READ, 7)
        counters.record_flush("cpu3.dcache", Reason.DMA_READ, 0)
        counters.record_fault(FaultKind.MAPPING, 4)
        key = ("cpu3.dcache", Reason.DMA_READ)
        assert all(isinstance(getattr(counters, name), Breakdown)
                   for name in BREAKDOWNS)
        assert counters.page_flushes == Counter({key: 2})
        assert counters.flush_cycles == {key: 7}
        assert dict(counters.page_purges) == {}
        assert counters.page_purges[key] == 0          # a missing key reads 0
        assert counters.page_flushes[("icache", Reason.PAGEOUT)] == 0
        assert key in counters.page_flushes
        assert key not in counters.page_purges
        assert list(counters.faults.items()) == [(FaultKind.MAPPING, 1)]
        assert counters.fault_cycles.copy() == Counter({FaultKind.MAPPING: 4})
        assert counters.total_flushes("dcache") == 2   # a cluster's rows
        assert counters.total_flush_cycles(reason=Reason.DMA_READ) == 7

    @pytest.mark.parametrize("write", [
        lambda c: c.faults.__setitem__(FaultKind.MAPPING, 1),
        lambda c: c.page_flushes.__delitem__(("dcache", Reason.PAGEOUT)),
        lambda c: setattr(c, "faults", Counter()),
    ], ids=["set", "delete", "rebind"])
    def test_breakdowns_are_read_only(self, write):
        with pytest.raises((TypeError, AttributeError)):
            write(Counters())

    def test_equality_ignores_row_order_and_zero_rows(self):
        a, b = Counters(), Counters()
        a.record_purge("icache", Reason.D_TO_I_COPY, 3)
        a.record_flush("dcache", Reason.PAGEOUT, 9)
        b.row("cpu1.dcache")                  # registered, never written
        b.record_flush("dcache", Reason.PAGEOUT, 9)
        assert a != b
        b.record_purge("icache", Reason.D_TO_I_COPY, 3)
        assert a == b and a.rows != b.rows

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    def test_copies_are_independent_and_equal(self, clone):
        """The profiler deep-copies a machine's counters as its baseline."""
        counters = Counters(read_hits=3)
        counters.record_flush("dcache", Reason.NEW_MAPPING, 11)
        counters.record_fault(FaultKind.CONSISTENCY, 300)
        twin = clone(counters)
        assert twin == counters
        assert twin.snapshot() == counters.snapshot()
        twin.record_flush("dcache", Reason.NEW_MAPPING, 1)
        assert counters.page_flushes[("dcache", Reason.NEW_MAPPING)] == 1
        assert twin.page_flushes[("dcache", Reason.NEW_MAPPING)] == 2
