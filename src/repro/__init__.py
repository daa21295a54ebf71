"""repro: a reproduction of Wheeler & Bershad, *Consistency Management
for Virtually Indexed Caches* (ASPLOS 1992).

The package is layered bottom-up:

* :mod:`repro.hw` — the simulated hardware: virtually indexed, physically
  tagged write-back caches with flush/purge, TLB, physical memory, and a
  non-snooping DMA engine (the HP 9000 Series 700 model of Section 1.1).
* :mod:`repro.core` — the paper's contribution: the four-state consistency
  model (Table 2), the per-page state encoding (Table 3), the Figure 1
  ``CacheControl`` algorithm, the Section 3.3 architectural variants, and
  the staleness oracle that makes the correctness condition executable.
* :mod:`repro.vm` — the Mach-style virtual memory substrate: address
  spaces, VM objects with copy-on-write, page tables, the free page list,
  the policy configurations (A–F and the Table 5 systems), and the
  machine-dependent ``pmap`` hosting the policies.
* :mod:`repro.kernel` — the OS services that generate the evaluation's
  events: IPC page transfer, buffer cache with write-behind, file system,
  DMA disk, exec loader (data-to-instruction copies) and the user-level
  Unix server with shared syscall channels.
* :mod:`repro.workloads` — the three benchmark programs plus the
  Section 2.5 alignment microbenchmark and a random-operation stressor.
* :mod:`repro.analysis` — the experiment harness regenerating every table
  in the paper's evaluation.
* :mod:`repro.obs` — observability: the structured event bus, the
  hierarchical cycle-attribution profiler, and the JSON/Prometheus
  metrics exporter (see docs/observability.md).

Quickstart::

    from repro import NEW_SYSTEM, OLD_SYSTEM
    from repro.analysis import run_workload
    from repro.workloads import AfsBench

    for policy in (OLD_SYSTEM, NEW_SYSTEM):
        metrics = run_workload(AfsBench(scale=0.25), policy)
        print(policy.name, metrics.seconds, metrics.page_flushes)
"""

from repro.errors import (ConfigurationError, KernelError, ProtectionError,
                          ReproError, StaleDataError)
from repro.hw.machine import Machine
from repro.hw.params import (CacheGeometry, CostModel, MachineConfig,
                             small_machine)
from repro.kernel.kernel import Kernel
from repro.obs import CycleProfiler, EventBus, profile_run
from repro.vm.policy import (CONFIG_GLOBAL, CONFIG_LADDER, NEW_SYSTEM,
                             OLD_SYSTEM, TABLE5_SYSTEMS, PolicyConfig)

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry", "CostModel", "MachineConfig", "Machine", "Kernel",
    "PolicyConfig", "CONFIG_GLOBAL", "CONFIG_LADDER", "TABLE5_SYSTEMS", "OLD_SYSTEM",
    "NEW_SYSTEM", "small_machine",
    "ReproError", "ConfigurationError", "KernelError", "ProtectionError",
    "StaleDataError",
    "EventBus", "CycleProfiler", "profile_run",
]
