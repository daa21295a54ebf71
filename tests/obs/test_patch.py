"""The shared observation seam: every observer of a live kernel installs
its wrappers through ``repro.obs.patch.Patches`` and must leave the
kernel exactly as it found it."""

import copy
from pathlib import Path

import pytest

from repro.analysis.experiments import (evaluation_machine, make_workload,
                                        run_workload)
from repro.analysis.trace import Tracer, diff_traces
from repro.conformance.lockstep import (ConformanceMonitor,
                                        SmpConformanceMonitor)
from repro.hw.params import small_machine
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.obs import CycleProfiler, ProfileReport, load_jsonl
from repro.obs.profiler import instrument_kernel
from repro.trace.record import TraceRecorder
from repro.vm.policy import NEW_SYSTEM

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "latex-paper.jsonl"


class _Profiler:
    """``instrument_kernel`` behind the attach/detach shape of the others."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.profiler = CycleProfiler(kernel.machine.clock)

    def attach(self):
        self.patches = instrument_kernel(self.profiler, self.kernel)
        return self

    def detach(self):
        self.patches.restore()


OBSERVERS = {
    "tracer": (Tracer, 1),
    "profiler": (_Profiler, 1),
    "recorder": (lambda kernel: TraceRecorder(kernel.machine), 1),
    "monitor": (ConformanceMonitor, 1),
    "smp-monitor": (SmpConformanceMonitor, 2),
}


def plumbing(kernel):
    """Every object an observer may patch, with an instance dict."""
    machine = kernel.machine
    objects = [kernel, kernel.pmap, kernel.pmap.engine, machine,
               machine.dma, machine.dcache, machine.icache, machine.memory,
               kernel.disk, kernel.buffer_cache, kernel.pageout]
    if machine.cluster is not None:
        objects.extend(machine.cluster.caches)
    return objects


@pytest.mark.parametrize("name", sorted(OBSERVERS))
def test_detach_leaves_no_instance_attributes(name):
    make, n_cpus = OBSERVERS[name]
    kernel = Kernel(config=small_machine(n_cpus=n_cpus, phys_pages=192),
                    buffer_cache_pages=24)
    before = [dict(vars(obj)) for obj in plumbing(kernel)]
    observer = make(kernel).attach()
    observer.detach()
    after = [dict(vars(obj)) for obj in plumbing(kernel)]
    for obj, was, now in zip(plumbing(kernel), before, after):
        assert now.keys() == was.keys(), (
            f"{type(obj).__name__} gained {sorted(now.keys() - was.keys())}")
        for key, value in was.items():
            assert now[key] is value, f"{type(obj).__name__}.{key}"
    assert kernel.machine.bus.tap is None


def test_detach_out_of_order_raises_and_leaves_both_working():
    kernel = Kernel(policy=NEW_SYSTEM,
                    config=small_machine(phys_pages=192),
                    buffer_cache_pages=24)
    proc = UserProcess(kernel, "p")
    tracer = Tracer(kernel).attach()
    profiler = _Profiler(kernel)
    profiler.profiler.start()
    profiler.attach()

    with pytest.raises(RuntimeError, match="Kernel.handle_fault"):
        tracer.detach()
    proc.touch_memory(2)
    faults = profiler.profiler.root.children["kernel.fault"].count
    assert faults > 0
    assert len(tracer.filter("fault")) == faults

    profiler.detach()
    tracer.detach()
    count = len(tracer.events)
    proc.touch_memory(2)
    assert len(tracer.events) == count
    assert "handle_fault" not in vars(kernel)
    assert kernel.machine.fault_handler == kernel.handle_fault


def _latex_kernel():
    return Kernel(policy=NEW_SYSTEM, config=evaluation_machine(),
                  buffer_cache_pages=48)


@pytest.mark.conform
def test_tracer_profiler_monitor_compose_on_a_golden_run():
    bare = _latex_kernel()
    run_workload(make_workload("latex-paper", 0.25), NEW_SYSTEM, kernel=bare)

    kernel = _latex_kernel()
    machine = kernel.machine
    before = copy.deepcopy(machine.counters)
    profiler = CycleProfiler(machine.clock)
    profiler.start("workload:latex-paper")
    tracer = Tracer(kernel).attach()
    patches = instrument_kernel(profiler, kernel)
    monitor = ConformanceMonitor(kernel, record_only=True).attach()
    try:
        run_workload(make_workload("latex-paper", 0.25), NEW_SYSTEM,
                     kernel=kernel)
    finally:
        monitor.detach()
        patches.restore()
        tracer.detach()
        profiler.stop()

    diff = diff_traces(load_jsonl(GOLDEN), tracer.events)
    assert diff is None, diff.render()
    report = ProfileReport("latex-paper", NEW_SYSTEM.name, profiler,
                           machine.counters, before=before)
    assert report.ok, "\n".join(map(str, report.reconcile()))
    assert monitor.ok, monitor.divergences
    assert monitor.events_seen > 0
    assert machine.clock.cycles == bare.machine.clock.cycles
    assert machine.counters.snapshot() == bare.machine.counters.snapshot()
