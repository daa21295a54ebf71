"""Cache-size sweep: where the lazy policy's deferred operations get
cheap.

The paper attributes part of laziness's win to deferred flush/purge
targets leaving the cache naturally before the deferred operation runs
(a non-resident purge costs 1/7th of a resident one on the 720).  Our
default evaluation cache (256 KiB) is large relative to the scaled
workloads, so deferred targets often remain resident; shrinking the
cache restores the paper's regime.  This sweep shows the average cost of
a data-cache purge under configuration F falling as the cache shrinks —
and the old-vs-new gap persisting at every size.
"""

from conftest import SCALE, emit, farm_executor

from repro.analysis.sweep import render_sweep, run_sweep

SIZES = (32, 64, 256)


def test_cache_size_sweep(once):
    # Each (policy, size) point is one farm job: REPRO_FARM_JOBS shards
    # the sweep, REPRO_FARM_CACHE makes reruns near-free; the default
    # runs every job in this process, point-for-point identical.
    executor = farm_executor()

    def run():
        return run_sweep("kernel-build", ("A", "F"), SIZES, SCALE,
                         executor=executor)

    sweeps = once(run)
    emit("sweep_cache_size", render_sweep(sweeps, "kernel-build"))

    a_points, f_points = sweeps["A"], sweeps["F"]

    # The new system wins at every cache size.
    for a, f in zip(a_points, f_points):
        assert f.metrics.seconds < a.metrics.seconds

    # Deferred purges get cheaper per operation as the cache shrinks
    # (more of their targets were naturally evicted first).
    f_small, f_large = f_points[0], f_points[-1]
    assert f_small.avg_purge_cycles < f_large.avg_purge_cycles

    # The flush identity (DMA + d->i) holds at every size.
    for point in f_points:
        m = point.metrics
        assert m.dcache_flushes.count == (m.dma_read_flushes.count
                                          + m.d_to_i_flushes.count)
