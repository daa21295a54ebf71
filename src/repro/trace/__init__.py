"""Workload->trace compiler and replay interpreter.

A *trace* is a workload run lowered to a flat structured-numpy op-stream
of hardware-level memory-system operations plus enough captured state to
re-execute it without the kernel: replay drives the cache/memory models
directly and reproduces bit-identical :class:`~repro.hw.stats.Counters`,
clock cycles and event traces at a fraction of the interpreted cost.

* :mod:`repro.trace.format` -- the op alphabet, the full-fidelity
  counters codec and the deterministic on-disk artifact container.
* :mod:`repro.trace.record` -- the compiler: records a live run through
  depth-guarded instrumentation and drift-reconciling SYNC ops.
* :mod:`repro.trace.interp` -- the interpreter: lowers the op-stream
  to a threaded program of pre-resolved instructions, one per op.
"""

from repro.trace.format import Trace, load_trace, save_trace
from repro.trace.interp import ReplayResult, replay_trace
from repro.trace.record import compile_workload, record_run

__all__ = [
    "Trace",
    "ReplayResult",
    "compile_workload",
    "load_trace",
    "record_run",
    "replay_trace",
    "save_trace",
]
