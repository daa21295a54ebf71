"""Serial/parallel equivalence: the farm's defining property.

Every consumer wired through the farm must produce results identical to
the primitives its jobs run — same counters, same reports, same bytes —
whether the batch runs in-process, across a pool, or out of the cache.
The references below call those primitives directly (``run_chaos``,
``run_workload`` on a resized machine, ``Explorer.explore``).
"""

import pytest

import repro.analysis.experiments
import repro.faults.harness
from repro.analysis.experiments import make_workload, run_workload
from repro.analysis.sweep import machine_with_dcache, run_sweep
from repro.conformance.explorer import Explorer
from repro.core.exhaustive import check_all_sequences
from repro.errors import StaleDataError
from repro.farm import (Executor, JobSpec, ResultCache, farm_exhaustive,
                        farm_explore)
from repro.faults.harness import run_chaos, run_chaos_suite

SEEDS = range(4)
STEPS = 60


@pytest.fixture(scope="module")
def pool():
    return Executor(jobs=4, timeout=120.0)


def chaos_reference(preset):
    return [run_chaos(seed, preset=preset, steps=STEPS).to_dict()
            for seed in SEEDS]


def sweep_reference(policy_name, sizes, scale):
    """One sweep column, each point measured on its resized machine."""
    return [run_workload(make_workload("kernel-build", scale), policy_name,
                         config=machine_with_dcache(kib))
            for kib in sizes]


class TestChaosEquivalence:
    def test_parallel_suite_matches_serial(self, pool):
        farmed = run_chaos_suite(SEEDS, preset="mixed", steps=STEPS,
                                 executor=pool)
        assert [r.to_dict() for r in farmed] == chaos_reference("mixed")

    def test_default_executor_matches_run_chaos(self):
        suite = run_chaos_suite(SEEDS, preset="transient", steps=STEPS)
        assert [r.to_dict() for r in suite] == chaos_reference("transient")


class TestSweepEquivalence:
    SIZES = (32, 64)

    def test_parallel_sweep_matches_serial(self, pool):
        farmed = run_sweep("kernel-build", ("F",), self.SIZES, scale=0.1,
                           executor=pool)
        assert [p.dcache_kib for p in farmed["F"]] == list(self.SIZES)
        # dataclass equality, all counters
        assert [p.metrics for p in farmed["F"]] == \
            sweep_reference("F", self.SIZES, 0.1)

    def test_grid_sweep_matches_serial(self, pool):
        serial = run_sweep("kernel-build", ("A", "F"), self.SIZES,
                           scale=0.1)
        farmed = run_sweep("kernel-build", ("A", "F"), self.SIZES,
                           scale=0.1, executor=pool)
        assert farmed == serial
        assert [p.metrics for p in serial["A"]] == \
            sweep_reference("A", self.SIZES, 0.1)


class TestSimulatorFailuresKeepTheirType:
    """A job that raises in-process re-raises its own exception: a stale
    read inside a farmed batch is the same StaleDataError, with the same
    traceback, that the primitive raises."""

    @staticmethod
    def stale(*args, **kwargs):
        raise StaleDataError("stale word", paddr=0x40)

    def test_chaos_job(self, monkeypatch):
        monkeypatch.setattr(repro.faults.harness, "run_chaos", self.stale)
        with pytest.raises(StaleDataError, match="stale word") as caught:
            run_chaos_suite(SEEDS, preset="mixed", steps=STEPS)
        assert caught.traceback[-1].name == "stale"

    def test_sweep_job(self, monkeypatch):
        monkeypatch.setattr(repro.analysis.experiments, "make_workload",
                            self.stale)
        with pytest.raises(StaleDataError, match="stale word") as caught:
            run_sweep("kernel-build", ("F",), (32,), scale=0.1)
        assert caught.traceback[-1].name == "stale"


class TestExplorerEquivalence:
    def test_sharded_sweep_is_pool_invariant(self, pool):
        # The same shard batch through a serial and a parallel executor:
        # identical merged report, complete arc coverage.
        serial = farm_explore(0, 40, 3, Executor(jobs=1), shards=4)
        farmed = farm_explore(0, 40, 3, pool, shards=4)
        assert farmed.to_dict() == serial.to_dict()
        assert farmed.ok and farmed.sequences == 40
        assert farmed.coverage.complete

    def test_one_shard_is_the_explorer(self):
        # What `repro conform` runs at --jobs 1: one shard, the same
        # report Explorer.explore gives directly.
        direct = Explorer(num_cache_pages=3, seed=5).explore(30)
        farmed = farm_explore(5, 30, 3, Executor(jobs=1))
        assert farmed.to_dict() == direct.to_dict()
        assert farmed.render() == direct.render()


class TestExhaustiveEquivalence:
    def test_sharded_check_covers_the_full_space(self, pool):
        full = check_all_sequences(num_cache_pages=2, depth=4)
        merged = farm_exhaustive(2, 4, pool)
        assert merged.ok == full.ok
        assert merged.sequences == full.sequences
        assert merged.depth == full.depth


class TestCacheEquivalence:
    def test_cache_hit_rerun_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = lambda: Executor(jobs=1, cache=cache)  # noqa: E731
        first = run_chaos_suite(SEEDS, "mixed", STEPS, run())
        stored = {p.name: p.read_bytes()
                  for p in tmp_path.glob("*.json")}
        assert len(stored) == len(list(SEEDS))

        executor = run()
        again = run_chaos_suite(SEEDS, "mixed", STEPS, executor)
        assert executor.stats.cache_hits == len(list(SEEDS))
        assert [r.to_dict() for r in again] == \
               [r.to_dict() for r in first]
        # The rerun rewrote nothing: every entry is the original bytes.
        assert {p.name: p.read_bytes()
                for p in tmp_path.glob("*.json")} == stored

    def test_injected_failstop_is_a_result_not_a_failure(self, tmp_path):
        # A fault plan that fail-stops the run is detection — the spec's
        # deterministic outcome — so the farm records it as a payload
        # instead of burning retries on an infrastructure failure.
        spec = JobSpec.workload(workload="afs-bench", policy="F",
                                scale=0.25,
                                inject="disk.read.transient:0.1:2",
                                seed=7)
        (serial,) = Executor(jobs=1).run([spec])
        (pooled,) = Executor(jobs=2, timeout=120.0).run([spec])
        assert serial.ok and serial.attempts == 1
        assert serial.payload["failstop"]["type"] == "DiskIOError"
        assert pooled.payload == serial.payload

    def test_cached_workload_payload_is_exact(self, tmp_path):
        spec = JobSpec.workload(workload="afs-bench", policy="F",
                                scale=0.1)
        cache = ResultCache(tmp_path)
        (miss,) = Executor(jobs=1, cache=cache).run([spec])
        (hit,) = Executor(jobs=1, cache=cache).run([spec])
        assert hit.cache_hit
        assert hit.payload == miss.payload
