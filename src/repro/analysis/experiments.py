"""The experiment runner: workloads × configurations → RunMetrics.

One function per experiment of the evaluation section:

* :func:`boot` — build the kernel, fault injector and lockstep shadow
  of one run; :func:`run_workload` — run one workload on a booted
  kernel and return its metrics (the primitives everything else uses).
* :func:`run_table1` — the old-vs-new comparison (Table 1).
* :func:`run_table4` — the full A–F configuration ladder (Table 4).
* :func:`run_table5_probe` — behavioural probes for the related-systems
  comparison (Table 5).
* :func:`run_alignment_micro` — the contrived Section 2.5 loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.hw.params import MachineConfig
from repro.kernel.kernel import Kernel
from repro.vm.policy import (CONFIG_LADDER, NEW_SYSTEM, OLD_SYSTEM,
                             TABLE5_SYSTEMS, PolicyConfig)
from repro.workloads.afs_bench import AfsBench
from repro.workloads.base import Workload
from repro.workloads.kernel_build import KernelBuild
from repro.workloads.latex_bench import LatexBench
from repro.workloads.microbench import AliasLoopResult, run_alias_write_loop
from repro.analysis.metrics import RunMetrics, diff_metrics, snapshot_counters

if TYPE_CHECKING:
    from repro.conformance import ConformanceMonitor, SmpConformanceMonitor
    from repro.faults import FaultInjector


#: the single source of truth for how large a run of the paper's
#: workloads is relative to the published sizes.  The CLI and the
#: benchmark suite both import this; EXPERIMENTS.md numbers are recorded
#: at this scale.
DEFAULT_SCALE = 1.0


def evaluation_machine(**overrides) -> MachineConfig:
    """The machine configuration used for the evaluation runs.

    Physical memory is kept modest (relative to the workloads) so frames
    recycle through the free list, reproducing the "random physical page
    from the kernel's free page list" purges that dominate configuration F
    (Section 5.1).
    """
    params = dict(phys_pages=320)
    params.update(overrides)
    return MachineConfig(**params)


WORKLOADS = {
    "afs-bench": AfsBench,
    "latex-paper": LatexBench,
    "kernel-build": KernelBuild,
}


def make_workload(name: str, scale: float = DEFAULT_SCALE) -> Workload:
    return WORKLOADS[name](scale)


#: the buffer-cache size, in pages, of every evaluation run, whichever
#: entry point starts it (:class:`Kernel`'s own default is larger).
EVALUATION_BUFFER_CACHE_PAGES = 48


@dataclass(frozen=True)
class FailStop:
    """A run an armed fault injector stopped: the :class:`ReproError`
    the simulator detected and the injections that led to it.  Under
    injection this is detection, a result of the run, not a crash."""

    error: ReproError
    injections: tuple


@dataclass(frozen=True)
class BootedKernel:
    """A kernel booted for one run, its armed fault injector and its
    unattached lockstep shadow (each ``None`` when not asked for)."""

    kernel: Kernel
    injector: FaultInjector | None
    monitor: ConformanceMonitor | SmpConformanceMonitor | None

    def guard(self, step, *args, **kwargs):
        """Call ``step``; with an injector armed, return the
        :class:`FailStop` of a :class:`ReproError` it raises.  Without
        one, every failure propagates with its traceback."""
        try:
            return step(*args, **kwargs)
        except ReproError as exc:
            if self.injector is None:
                raise
            return FailStop(exc, tuple(self.injector.audit))

    def run(self, workload: Workload) -> RunMetrics | FailStop:
        """Run ``workload`` with the shadow attached; return its metrics
        or, only when an injector is armed, the :class:`FailStop` that
        ended it (see :meth:`guard`).  Callers read ``monitor.ok``
        afterwards."""
        if self.monitor is not None:
            self.monitor.attach()
        try:
            return self.guard(run_workload, workload, self.kernel.cpolicy,
                              kernel=self.kernel)
        finally:
            if self.monitor is not None:
                self.monitor.detach()


def boot(policy, config: MachineConfig | None = None, *,
         buffer_cache_pages: int = EVALUATION_BUFFER_CACHE_PAGES,
         inject: str | None = None, seed: int = 0,
         conform: bool = False) -> BootedKernel:
    """Boot the kernel every entry point runs a paper workload on.

    The ``inject`` plan is parsed before anything is built, so a
    malformed plan is a :class:`~repro.errors.ConfigurationError` and no
    kernel.  The injector is armed at boot, before the workload's setup.
    ``conform`` builds the lockstep shadow — one per CPU on a cluster —
    in record-only mode.  Observers never change which kernel is booted.
    """
    plan = injector = monitor = None  # each package loads only if asked
    if inject:
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.parse(inject, seed=seed)
    kernel = Kernel(policy=policy, config=config or evaluation_machine(),
                    buffer_cache_pages=buffer_cache_pages)
    if plan is not None:
        injector = FaultInjector(plan, kernel.machine.clock)
        injector.attach_kernel(kernel)
    if conform:
        from repro.conformance import (ConformanceMonitor,
                                       SmpConformanceMonitor)

        shadow = (SmpConformanceMonitor if kernel.machine.config.n_cpus > 1
                  else ConformanceMonitor)
        monitor = shadow(kernel, record_only=True)
    return BootedKernel(kernel, injector, monitor)


def run_workload(workload: Workload, policy,
                 config: MachineConfig | None = None,
                 buffer_cache_pages: int = EVALUATION_BUFFER_CACHE_PAGES,
                 kernel: Kernel | None = None) -> RunMetrics:
    """Boot a fresh kernel under ``policy`` and measure one execution.

    ``policy`` is anything :func:`repro.policy.resolve` accepts: a
    :class:`PolicyConfig` flag bag, a registered policy name, or a
    :class:`~repro.policy.ConsistencyPolicy` instance.  A pre-booted
    ``kernel`` (see :func:`boot`) may be supplied instead; it must have
    been built with the same policy.
    """
    from repro.policy import resolve
    policy = resolve(policy)
    if kernel is None:
        kernel = boot(policy, config,
                      buffer_cache_pages=buffer_cache_pages).kernel
    workload.setup(kernel)
    before = snapshot_counters(kernel.machine.counters)
    start_cycles = kernel.machine.clock.cycles
    workload.execute(kernel)
    cycles = kernel.machine.clock.cycles - start_cycles
    after = snapshot_counters(kernel.machine.counters)
    kernel.shutdown()
    return diff_metrics(policy.name, workload.name, before, after, cycles,
                        kernel.machine.config.cost)


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's old-vs-new comparison."""

    workload: str
    old: RunMetrics
    new: RunMetrics

    @property
    def gain_percent(self) -> float:
        return 100.0 * (self.old.seconds - self.new.seconds) / self.old.seconds


def run_table1(scale: float = DEFAULT_SCALE,
               config: MachineConfig | None = None) -> list[Table1Row]:
    """Table 1: each benchmark on the old and new kernels."""
    rows = []
    for name in WORKLOADS:
        old = run_workload(make_workload(name, scale), OLD_SYSTEM,
                           config=config)
        new = run_workload(make_workload(name, scale), NEW_SYSTEM,
                           config=config)
        rows.append(Table1Row(name, old, new))
    return rows


def run_table4(scale: float = DEFAULT_SCALE,
               config: MachineConfig | None = None,
               workload_names: tuple[str, ...] | None = None,
               ) -> dict[str, list[RunMetrics]]:
    """Table 4: each benchmark across the six configurations A-F."""
    results: dict[str, list[RunMetrics]] = {}
    for name in (workload_names or tuple(WORKLOADS)):
        results[name] = [
            run_workload(make_workload(name, scale), policy, config=config)
            for policy in CONFIG_LADDER
        ]
    return results


def run_table5_probe(scale: float = DEFAULT_SCALE,
                     config: MachineConfig | None = None) -> list[RunMetrics]:
    """Measure the Table 5 systems on a common alias/remap-heavy probe
    (afs-bench), giving behavioural evidence for the qualitative claims."""
    return [run_workload(AfsBench(scale), system, config=config)
            for system in TABLE5_SYSTEMS]


def run_alignment_micro(iterations: int = 10_000,
                        policy: PolicyConfig = NEW_SYSTEM,
                        config: MachineConfig | None = None,
                        ) -> tuple[AliasLoopResult, AliasLoopResult]:
    """The Section 2.5 microbenchmark: aligned vs unaligned write loop."""
    aligned = run_alias_write_loop(boot(policy, config).kernel,
                                   iterations, aligned=True)
    unaligned = run_alias_write_loop(boot(policy, config).kernel,
                                     iterations, aligned=False)
    return aligned, unaligned
