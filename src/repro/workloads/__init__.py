"""Benchmark workloads: the paper's three programs, the Section 2.5
alignment microbenchmark, a randomized alias/DMA stressor, and the
Section 3.3 multi-CPU sharing workloads."""

from repro.workloads.afs_bench import AfsBench
from repro.workloads.base import PaperNumbers, Workload
from repro.workloads.kernel_build import KernelBuild
from repro.workloads.latex_bench import LatexBench
from repro.workloads.microbench import AliasLoopResult, run_alias_write_loop
from repro.workloads.random_ops import AliasStressor, RandomOps, StressStats
from repro.workloads.smp import SmpRingResult, run_smp_ring

__all__ = [
    "Workload", "PaperNumbers", "AfsBench", "LatexBench", "KernelBuild",
    "AliasStressor", "RandomOps", "StressStats", "AliasLoopResult",
    "run_alias_write_loop",
    "SmpRingResult", "run_smp_ring",
]
