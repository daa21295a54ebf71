"""Shared helpers for the benchmark suite.

Each bench regenerates one table or figure of the paper's evaluation,
prints it, and persists it under ``benchmarks/out/`` so the rendered
artifacts survive the run (pytest captures stdout).  Run with::

    pytest benchmarks/ --benchmark-only

Scale note: workloads run at SCALE of the paper's size; EXPERIMENTS.md
records the paper-vs-measured comparison for every artifact produced
here.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.experiments import DEFAULT_SCALE

OUT_DIR = pathlib.Path(__file__).parent / "out"

# Fraction of the paper's workload sizes used for the bench runs, shared
# with the CLI via the experiments module.  The batched access engine made
# full scale affordable: the whole suite still completes in well under a
# minute (see bench_sim_throughput.py).
SCALE = DEFAULT_SCALE

#: how wide the farm-wired benches run (bench_sweep_cache_size,
#: bench_full_scale); 1 runs every job in this process, bit-identical.
FARM_JOBS = int(os.environ.get("REPRO_FARM_JOBS", "1"))


def farm_executor(timeout: float = 900.0):
    """The executor the farm-wired benches share.

    The result cache stays *off* unless ``REPRO_FARM_CACHE`` names a
    directory: a cached bench would report near-zero wall time, which is
    exactly what a benchmark must not silently do.  CI's farm job opts
    in to demonstrate the near-free rerun.
    """
    from repro.farm import Executor, ResultCache

    cache_dir = os.environ.get("REPRO_FARM_CACHE")
    return Executor(jobs=FARM_JOBS,
                    cache=ResultCache(cache_dir) if cache_dir else None,
                    timeout=timeout)


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and persist it to benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The simulations are deterministic, so repeated rounds measure nothing
    but host noise; one round keeps the suite fast while still recording
    wall-clock cost per experiment.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
