"""SMP scaling: the Section 3.3 claim as a 1..8-CPU curve.

The multi-CPU ring workload (producer/consumer pairs split across CPUs,
deterministic round-robin schedule) runs at every CPU count from 1 to 8,
once with aligned sharing and once unaligned.  The curve lands in
``BENCH_smp.json`` at the repo root and demonstrates the paper's claim
that bus snooping is not a substitute for software alias management:

* *aligned* sharing rides the snoop protocol — coherence invalidations
  and write-backs grow with the CPU count while consistency faults stay
  flat and low;
* *unaligned* sharing never generates a single snoop hit (the aliases
  live in different cache sets), so every CPU keeps paying the same
  consistency faults and flush traffic as the uniprocessor.

The simulator charges all CPUs to one shared clock, so cycles/record is
a *cost* metric (per-record work including coherence and fault
handling), not parallel throughput.

The curve and its gates live in :mod:`repro.workloads.smp` (``repro
smp`` prints the same table); this file writes ``BENCH_smp.json``.  Each
point is one farm job (``JobSpec.smp``), so the sweep shards across
``REPRO_FARM_JOBS`` workers and caches like any other farm batch.  Also
runnable standalone (the CI smp job invocation)::

    PYTHONPATH=src python benchmarks/bench_smp_scaling.py
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_smp.json"

if str(REPO_ROOT / "src") not in sys.path:      # standalone invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.workloads.smp import check, measure, render


def test_smp_scaling(once):
    from conftest import emit, farm_executor
    result = once(measure, farm_executor())
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")
    emit("smp_scaling", render(result))
    assert check(result) == []


if __name__ == "__main__":
    result = measure()
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    failures = check(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    sys.exit(1 if failures else 0)
