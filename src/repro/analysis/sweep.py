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

from repro.analysis.experiments import make_workload, run_workload
from repro.analysis.metrics import RunMetrics
from repro.hw.params import CacheGeometry, MachineConfig
from repro.policy import ConsistencyPolicy, get_policy
from repro.vm.policy import PolicyConfig


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


def sweep_cache_sizes(workload_name: str,
                      policy: ConsistencyPolicy | PolicyConfig,
                      sizes_kib: tuple[int, ...] = (32, 64, 128, 256),
                      scale: float = 0.5, jobs: int = 1,
                      executor=None,
                      geometry: str | None = None) -> list[SweepPoint]:
    """Run one workload/policy across data-cache sizes.

    With ``jobs > 1`` (or an explicit farm ``executor``) each size runs
    as one farm job — identical points, sharded and cacheable (see
    :mod:`repro.farm`); every sweep point is a pure function of
    (workload, policy, size, scale, geometry).  ``geometry`` is an
    :func:`~repro.hw.params.apply_geometry` spec ("2way+victim8+l2")
    applied on top of each resized machine."""
    if jobs <= 1 and executor is None:
        points = []
        for kib in sizes_kib:
            config = machine_with_dcache(kib)
            if geometry is not None:
                from repro.hw.params import apply_geometry
                config = apply_geometry(config, geometry)
            metrics = run_workload(make_workload(workload_name, scale),
                                   policy, config=config)
            points.append(SweepPoint(kib, metrics))
        return points
    from repro.farm import Executor, farm_sweep_points

    if executor is None:
        executor = Executor(jobs=jobs)
    return farm_sweep_points(workload_name, policy.name, tuple(sizes_kib),
                             scale, executor, geometry=geometry)


def run_sweep(workload_name: str, policy_names: tuple[str, ...],
              sizes_kib: tuple[int, ...], scale: float = 0.5,
              jobs: int = 1, executor=None,
              geometry: str | None = None) -> dict[str, list[SweepPoint]]:
    """The CLI's sweep: every policy across every cache size.  When
    farmed, the whole (policy, size) grid runs as one spec batch, so
    every point shares the worker pool."""
    policies = [get_policy(name) for name in policy_names]  # fail fast
    if jobs <= 1 and executor is None:
        return {name: sweep_cache_sizes(workload_name, policy,
                                        sizes_kib, scale, geometry=geometry)
                for name, policy in zip(policy_names, policies)}
    from repro.farm import Executor, farm_sweep_grid

    if executor is None:
        executor = Executor(jobs=jobs)
    return farm_sweep_grid(workload_name, tuple(policy_names),
                           tuple(sizes_kib), scale, executor,
                           geometry=geometry)


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
