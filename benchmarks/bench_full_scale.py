"""Paper-scale runs: the headline comparison at the evaluation's true size.

The regular benches run scaled-down workloads for speed; this one runs
kernel-build at the paper's size — 200 compiled sources, as in "builds a
version of the Mach kernel from about 200 source files" — and afs-bench
with an Andrew-sized file set, on a larger-memory machine.  The gains
and operation collapse must match the scaled runs (the shapes are scale-
invariant, which is itself worth checking).
"""

from conftest import emit, farm_executor

from repro.analysis.metrics import RunMetrics
from repro.farm import JobSpec, job_payloads

FULL_MACHINE = dict(phys_pages=1024)
FULL_SCALE = 5.0     # kernel-build: 200 sources; afs-bench: 80 files

NAMES = ("afs-bench", "kernel-build")


def test_full_scale(once):
    # The four paper-scale runs are independent pure jobs — the shape of
    # work the simulation farm exists for.  REPRO_FARM_JOBS shards them;
    # by default they run in this process.
    executor = farm_executor()
    specs = [JobSpec.workload(workload=name, policy=policy,
                              scale=FULL_SCALE,
                              phys_pages=FULL_MACHINE["phys_pages"],
                              buffer_cache_pages=128)
             for name in NAMES for policy in ("A", "F")]

    def run():
        metrics = [RunMetrics.from_dict(payload["metrics"])
                   for payload in job_payloads(executor, specs)]
        return {name: (metrics[2 * i], metrics[2 * i + 1])
                for i, name in enumerate(NAMES)}

    rows = once(run)
    lines = ["Paper-scale runs (kernel-build: 200 sources):",
             f"{'benchmark':<14} {'old(s)':>9} {'new(s)':>9} {'gain':>6} "
             f"{'flushes':>14} {'purges':>14}",
             "-" * 72]
    for name, (old, new) in rows.items():
        gain = 100 * (old.seconds - new.seconds) / old.seconds
        lines.append(
            f"{name:<14} {old.seconds:>9.3f} {new.seconds:>9.3f} "
            f"{gain:>5.1f}% {old.page_flushes:>6}->{new.page_flushes:<6} "
            f"{old.page_purges:>6}->{new.page_purges:<6}")
    emit("full_scale", "\n".join(lines))

    for name, (old, new) in rows.items():
        gain = 100 * (old.seconds - new.seconds) / old.seconds
        assert 4.0 < gain < 25.0           # the paper's band, loosely
        assert new.page_flushes < old.page_flushes / 3
        # the flush identity holds at full scale too
        assert new.dcache_flushes.count == (new.dma_read_flushes.count
                                            + new.d_to_i_flushes.count)
