"""Helpers for driving a :class:`~repro.hw.smp.CoherentCluster` directly.

The cluster's accesses run on ``current_cpu`` with a bare cache's
``(vaddr, paddr, ...)`` signature; :func:`on_cpu` selects the CPU inline.
The copy counts read the per-CPU caches' tag and dirty arrays.
"""


def on_cpu(cluster, cpu):
    """Route the cluster's next accesses to ``cpu``; returns the cluster."""
    cluster.current_cpu = cpu
    return cluster


def resident_copies(cluster, set_idx, tag):
    """How many CPUs' caches hold the equivalent line ``(set_idx, tag)``."""
    return sum(1 for cache in cluster.caches
               if cache._find_way(set_idx, tag) is not None)


def dirty_copies(cluster, set_idx, tag):
    """How many CPUs' caches hold a dirty copy of the equivalent line (the
    hardware invariant says at most one)."""
    count = 0
    for cache in cluster.caches:
        way = cache._find_way(set_idx, tag)
        if way is not None and cache._dirty[way, set_idx]:
            count += 1
    return count
