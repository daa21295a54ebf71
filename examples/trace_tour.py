#!/usr/bin/env python3
"""Watching the machinery: trace one file read, end to end.

The tracer records every consistency-relevant event — faults with their
classification, flushes and purges with their reason, DMA transfers —
without changing the run.  This example traces a single `read()` syscall
on a cold file under the unaligned configuration B and under the fully
aligned configuration F, and prints both traces side by side: the whole
paper in about fifteen lines of events.

Run:  python examples/trace_tour.py
"""

from repro import Kernel, MachineConfig
from repro.analysis.trace import Tracer
from repro.kernel.process import UserProcess
from repro.policy import get_policy


def trace_one_read(policy_name: str) -> Tracer:
    kernel = Kernel(policy=get_policy(policy_name),
                    config=MachineConfig(phys_pages=128))
    kernel.fs.create("/data/file", size_pages=1, on_disk=True)
    UserProcess(kernel, "init")   # occupy the first channel slot, which
    # happens to align with the fixed client address by arithmetic luck
    proc = UserProcess(kernel, "reader")
    fd = proc.open("/data/file")        # warm the channel + metadata
    tracer = Tracer(kernel).attach()
    proc.read_file_page(fd, 0)          # the traced operation
    tracer.detach()
    proc.close(fd)
    return tracer


def show(policy_name: str) -> None:
    tracer = trace_one_read(policy_name)
    policy = get_policy(policy_name)
    print(f"=== one read() under configuration {policy.name} "
          f"({policy.description}) ===")
    for event in tracer.events:
        print(f"  {event}")
    summary = tracer.summary()
    print(f"  -- {len(tracer.events)} events: "
          + ", ".join(f"{k}={v}" for k, v in sorted(summary.items())
                      if ":" not in k))
    print()


if __name__ == "__main__":
    show("B")   # lazy but unaligned: flushes and purges on the path
    show("F")   # aligned everywhere: the same read, almost eventless
