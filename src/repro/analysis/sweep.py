"""Parameter sweeps: how the evaluation's shapes move with the machine.

The paper measured one machine (a 720 with a 256 KiB data cache).  The
simulator can sweep machine parameters and show how the policy trade-offs
move — most interestingly with cache size: the smaller the cache, the
more often lazily deferred flush/purge targets have already been evicted
by natural replacement, which is the effect the paper credits for cheap
deferred operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import RunMetrics
from repro.hw.params import CacheGeometry, MachineConfig
from repro.policy import get_policy


@dataclass(frozen=True)
class SweepPoint:
    """One (cache size, policy) measurement."""

    dcache_kib: int
    metrics: RunMetrics

    @property
    def avg_purge_cycles(self) -> float:
        return self.metrics.dcache_purges.avg_cycles

    @property
    def avg_flush_cycles(self) -> float:
        return self.metrics.dcache_flushes.avg_cycles


def machine_with_dcache(kib: int, phys_pages: int = 320) -> MachineConfig:
    """An evaluation machine with a resized data cache (icache scaled to
    half, as on the 720)."""
    return MachineConfig(
        dcache=CacheGeometry(size=kib * 1024),
        icache=CacheGeometry(size=max(8, kib // 2) * 1024),
        phys_pages=phys_pages)


def run_sweep(workload_name: str, policy_names: tuple[str, ...],
              sizes_kib: tuple[int, ...], scale: float = 0.5,
              executor=None,
              geometry: str | None = None) -> dict[str, list[SweepPoint]]:
    """Every policy across every data-cache size: ``{policy: [SweepPoint]}``
    in the order given.

    The whole (policy, size) grid is one farm spec batch run on
    ``executor`` (default: in-process, ``Executor()``), so every point
    shares the worker pool and the result cache; each point is a pure
    function of (workload, policy, size, scale, geometry).  ``geometry``
    is an :func:`~repro.hw.params.apply_geometry` spec ("2way+victim8+l2")
    applied on top of each resized machine."""
    for name in policy_names:
        get_policy(name)  # fail fast, before any job runs
    from repro.farm import Executor, JobSpec, job_payloads

    grid = [(name, kib) for name in policy_names for kib in sizes_kib]
    specs = [JobSpec.workload(workload=workload_name, policy=name,
                              scale=scale, dcache_kib=kib,
                              geometry=geometry)
             for name, kib in grid]
    points: dict[str, list[SweepPoint]] = {name: [] for name in policy_names}
    for (name, kib), payload in zip(grid, job_payloads(executor or Executor(),
                                                       specs)):
        points[name].append(
            SweepPoint(kib, RunMetrics.from_dict(payload["metrics"])))
    return points


def sweep_to_dict(points_by_policy: dict[str, list[SweepPoint]],
                  workload_name: str, scale: float) -> dict:
    """A JSON-safe encoding of a sweep (the CLI's ``--out`` artifact)."""
    return {
        "workload": workload_name,
        "scale": scale,
        "policies": {
            name: [{"dcache_kib": p.dcache_kib,
                    "metrics": p.metrics.to_dict()} for p in points]
            for name, points in points_by_policy.items()
        },
    }


def render_sweep(points_by_policy: dict[str, list[SweepPoint]],
                 workload_name: str) -> str:
    """Tabulate a sweep: time and per-operation costs by cache size."""
    lines = [f"Cache-size sweep, {workload_name}:",
             f"{'policy':<8} {'dcache':>8} {'time(s)':>9} {'flushes':>8} "
             f"{'avg cyc':>8} {'purges':>7} {'avg cyc':>8}"]
    lines.append("-" * 62)
    for policy_name, points in points_by_policy.items():
        for point in points:
            m = point.metrics
            lines.append(
                f"{policy_name:<8} {point.dcache_kib:>6}Ki {m.seconds:>9.4f} "
                f"{m.dcache_flushes.count:>8} {point.avg_flush_cycles:>8.0f} "
                f"{m.dcache_purges.count:>7} {point.avg_purge_cycles:>8.0f}")
    return "\n".join(lines)
