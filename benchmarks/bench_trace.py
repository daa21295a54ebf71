"""Trace replay throughput: the compiled op-stream interpreter vs the
live block path, at the paper-scale settings of bench_full_scale.

Each (workload, policy) pair is run once through the normal kernel
(the block path — the baseline every table is produced on), then
compiled to a trace and replayed three times; the median replay wall
time counts.  Replay is deterministic, so repeats differ by host noise
only, and the median does not reward a lucky quiet moment as the best
of the repeats would.
The replay must verify the equivalence contract — bit-identical clock
and full-fidelity counters against what the recorder captured — or the
measurement is void: a fast wrong replay is worthless.

The measured rates, the per-pair and aggregate speedups, and the
equivalence verdict are persisted to ``BENCH_trace.json`` at the repo
root; the CI ``trace`` job gates on aggregate speedup >= 5x with
``equivalent: true``.

Also runnable standalone (the CI invocation)::

    PYTHONPATH=src python benchmarks/bench_trace.py [--assert-speedup]
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_trace.json"

if str(REPO_ROOT / "src") not in sys.path:      # standalone invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import (evaluation_machine, make_workload,
                                        run_workload)
from repro.policy import get_policy
from repro.trace import compile_workload, replay_trace

# bench_full_scale's settings: paper-sized workloads on the large-memory
# machine.
FULL_SCALE = 5.0
PHYS_PAGES = 1024
BUFFER_CACHE_PAGES = 128
NAMES = ("afs-bench", "kernel-build")
POLICIES = ("A", "F")
REPLAY_REPEATS = 3

#: the gate: aggregate replay speedup over the block path.
MIN_SPEEDUP = 5.0


def measure() -> dict:
    config = evaluation_machine(phys_pages=PHYS_PAGES)
    pairs = []
    total_direct = total_replay = 0.0
    all_equivalent = True
    for name in NAMES:
        for policy_name in POLICIES:
            policy = get_policy(policy_name)
            t0 = time.perf_counter()
            run_workload(make_workload(name, FULL_SCALE), policy,
                         config=config,
                         buffer_cache_pages=BUFFER_CACHE_PAGES)
            direct = time.perf_counter() - t0

            trace = compile_workload(
                make_workload(name, FULL_SCALE), policy, config=config,
                buffer_cache_pages=BUFFER_CACHE_PAGES)
            times = []
            for _ in range(REPLAY_REPEATS):
                t0 = time.perf_counter()
                result = replay_trace(trace)
                times.append(time.perf_counter() - t0)
                all_equivalent = all_equivalent and result.equivalent
            replay = statistics.median(times)
            total_direct += direct
            total_replay += replay
            pairs.append({
                "workload": name,
                "policy": policy_name,
                "n_ops": result.n_ops,
                "direct_seconds": round(direct, 6),
                "replay_seconds": round(replay, 6),
                "speedup": round(direct / replay, 2),
                "equivalent": result.equivalent,
                "mismatches": list(result.mismatches),
            })
    return {
        "scale": FULL_SCALE,
        "phys_pages": PHYS_PAGES,
        "buffer_cache_pages": BUFFER_CACHE_PAGES,
        "replay_repeats": REPLAY_REPEATS,
        "pairs": pairs,
        "direct_seconds": round(total_direct, 6),
        "replay_seconds": round(total_replay, 6),
        "speedup": round(total_direct / total_replay, 2),
        "equivalent": all_equivalent,
    }


def render(result: dict) -> str:
    lines = [
        "Trace replay vs the live block path "
        f"(paper scale {result['scale']}, "
        f"{result['phys_pages']}-page machine)",
        "",
        f"{'pair':<18} {'ops':>7} {'direct(s)':>10} {'replay(s)':>10} "
        f"{'speedup':>8} {'equiv':>6}",
    ]
    for pair in result["pairs"]:
        tag = f"{pair['workload']}/{pair['policy']}"
        lines.append(
            f"{tag:<18} {pair['n_ops']:>7} {pair['direct_seconds']:>10.3f} "
            f"{pair['replay_seconds']:>10.3f} {pair['speedup']:>7.2f}x "
            f"{str(pair['equivalent']).lower():>6}")
    lines.append("")
    lines.append(f"aggregate: {result['direct_seconds']:.3f}s direct / "
                 f"{result['replay_seconds']:.3f}s replay = "
                 f"{result['speedup']}x, equivalent: "
                 f"{str(result['equivalent']).lower()}")
    return "\n".join(lines)


def test_trace_replay_speedup(once):
    from conftest import emit
    result = once(measure)
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")
    emit("trace_replay", render(result))
    assert result["equivalent"], [p["mismatches"] for p in result["pairs"]]
    assert result["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    result = measure()
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    ok = result["equivalent"]
    if "--assert-speedup" in sys.argv[1:]:
        ok = ok and result["speedup"] >= MIN_SPEEDUP
        print(f"speedup gate: {result['speedup']}x "
              f"(limit {MIN_SPEEDUP}x): "
              + ("pass" if result["speedup"] >= MIN_SPEEDUP else "FAIL"))
    sys.exit(0 if ok else 1)
