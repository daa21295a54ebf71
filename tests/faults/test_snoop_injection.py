"""Snoop-race fault injection: the four ``smp.snoop.*`` points, their
consequential-by-construction contract, and the detected-or-harmless
invariant on a cluster."""

import pytest

from repro.faults import (ALL_POINTS, CONSISTENCY_POINTS, DIVERGENCE_POINTS,
                          POINT_DESCRIPTIONS, SNOOP_POINTS, FaultInjector,
                          FaultPlan, FaultRule, classify_point, run_chaos)
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.smp import CoherentCluster
from repro.hw.stats import Clock, Counters, Reason
from tests.hw.smp_helpers import on_cpu, resident_copies

PAGE = 4096


def make_cluster(n_cpus=2, point=None):
    geo = CacheGeometry(size=16 * 1024)
    mem = PhysicalMemory(16, PAGE)
    clock = Clock()
    cluster = CoherentCluster(n_cpus, geo, mem, CostModel(), clock,
                              Counters())
    injector = None
    if point is not None:
        injector = FaultInjector(
            FaultPlan(seed=0, rules=(FaultRule(point, rate=1.0),)), clock)
        cluster.injector = injector
    return cluster, mem, injector


class TestCatalogExtension:
    def test_snoop_points_are_consistency_and_divergence(self):
        assert SNOOP_POINTS <= CONSISTENCY_POINTS
        assert SNOOP_POINTS <= DIVERGENCE_POINTS

    def test_descriptions_lockstep_with_all_points(self):
        # The docstring promise: one description per point, no drift.
        assert set(POINT_DESCRIPTIONS) == set(ALL_POINTS)

    def test_classification_is_total(self):
        for point in ALL_POINTS:
            assert classify_point(point) in ("snoop-race", "consistency",
                                             "recoverable", "terminal")
        for point in SNOOP_POINTS:
            assert classify_point(point) == "snoop-race"


class TestInvalidateDrop:
    def test_remote_copy_survives_the_store(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.invalidate.drop")
        on_cpu(cluster, 1).read(0, 0)       # cpu1 caches the line
        on_cpu(cluster, 0).write(0, 0, 42)  # invalidation is dropped
        set_idx = cluster.geo.set_index(0)
        assert resident_copies(cluster, set_idx, 0) == 2
        assert cluster.counters.coherence_invalidations == 0
        # cpu1 now reads the stale cached word: the race is observable.
        assert cluster.caches[1].read(0, 0) == 0
        [record] = inj.audit
        assert record.consequential
        assert record.detail == {"ppage": 0, "cpu": 0, "victim": 1}
        assert record.ppage in inj.consistency_frames()

    def test_without_a_resident_peer_the_point_is_silent(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.invalidate.drop")
        on_cpu(cluster, 0).write(0, 0, 42)  # no peer copy -> nothing to race
        assert inj.audit == []


class TestWritebackStale:
    def test_reader_fills_from_stale_memory(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.writeback.stale")
        on_cpu(cluster, 0).write(0, 0, 42)  # dirty on cpu0, memory still 0
        # The write-back is lost: cpu1 fills from stale memory.
        assert on_cpu(cluster, 1).read(0, 0) == 0
        assert cluster.counters.coherence_writebacks == 0
        [record] = inj.audit
        assert record.consequential

    def test_clean_peer_never_consults_the_point(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.writeback.stale")
        on_cpu(cluster, 0).read(0, 0)  # clean copy: no write-back to lose
        assert on_cpu(cluster, 1).read(0, 0) == 0
        assert inj.audit == []


class TestWritebackLost:
    def test_dirty_data_dies_with_the_invalidation(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.writeback.lost")
        on_cpu(cluster, 0).write(0, 0, 42)  # dirty on cpu0
        on_cpu(cluster, 1).write(0, 0, 7)   # invalidates without write-back
        set_idx = cluster.geo.set_index(0)
        assert resident_copies(cluster, set_idx, 0) == 1
        assert cluster.counters.coherence_writebacks == 0
        # cpu1's own store landed; the dirty 42 never reached memory.
        cluster.flush_page_frame(cluster.caches[0].cache_page_of(0, 0), 0,
                                 Reason.EXPLICIT)
        assert mem.read_word(0) == 7
        [record] = inj.audit
        assert record.consequential


class TestInvalidateMisroute:
    def test_intended_copy_survives(self):
        cluster, mem, inj = make_cluster(
            point="smp.snoop.invalidate.misroute")
        on_cpu(cluster, 1).read(0, 0)
        on_cpu(cluster, 0).write(0, 0, 42)
        set_idx = cluster.geo.set_index(0)
        # The invalidation landed one cache page over; both copies live.
        assert resident_copies(cluster, set_idx, 0) == 2
        [record] = inj.audit
        assert record.consequential


class TestRunOps:
    @pytest.mark.parametrize("point", sorted(SNOOP_POINTS))
    def test_batched_accesses_consult_the_points(self, point):
        cluster, mem, inj = make_cluster(point=point)
        write_run = point in ("smp.snoop.invalidate.drop",
                              "smp.snoop.invalidate.misroute",
                              "smp.snoop.writeback.lost")
        if point == "smp.snoop.writeback.stale":
            on_cpu(cluster, 0).write_run(0, 0, list(range(8)))  # dirty cpu0
            on_cpu(cluster, 1).read_run(0, 0, 8)
        else:
            if point == "smp.snoop.writeback.lost":
                on_cpu(cluster, 1).write_run(0, 0, [9] * 8)  # dirty peer
            else:
                on_cpu(cluster, 1).read_run(0, 0, 8)  # resident peer
            on_cpu(cluster, 0).write_run(0, 0, list(range(8)))
        assert len(inj.audit) == 1
        assert inj.audit[0].consequential
        assert write_run or not cluster.counters.coherence_invalidations


class TestChaosIntegration:
    @pytest.mark.parametrize("seed", range(8))
    def test_snoop_plans_are_detected_or_harmless(self, seed):
        report = run_chaos(seed, preset="snoop", steps=100, n_cpus=4)
        assert report.ok, report.failures
        assert report.n_cpus == 4
        assert set(report.conform_per_cpu) == {0, 1, 2, 3}
        for record_point in report.points_fired:
            if record_point.startswith("smp.snoop."):
                # every snoop record was settled by the verifier
                assert report.resolutions.get("latent", 0) == 0

    def test_uniprocessor_snoop_preset_is_silent(self):
        report = run_chaos(0, preset="snoop", steps=60, n_cpus=1)
        assert report.ok
        assert report.injections == 0
        assert report.conform_per_cpu == {}

    def test_report_round_trips_with_per_cpu_fields(self):
        import json

        report = run_chaos(3, preset="snoop", steps=80, n_cpus=2)
        data = json.loads(json.dumps(report.to_dict()))
        clone = type(report).from_dict(data)
        assert clone == report
        assert all(isinstance(cpu, int) for cpu in clone.conform_per_cpu)
