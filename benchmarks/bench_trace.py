"""Trace replay throughput: the compiled op-stream interpreter vs the
live block path, at the paper-scale settings of bench_full_scale.

Each (workload, policy) pair runs ``ROUNDS`` rounds.  A round compiles
the pair to a trace (recording runs the same boot, setup and execute
with the recorder attached), runs it once through the normal kernel
(the block path the tables are produced on, boot included) and replays
the latest trace once (building the replay machine included).  The
three sides are interleaved, and their order reverses from round to
round, so a slow phase of the host lands on all of them.  Each side
counts as the median of its ``ROUNDS`` runs; the aggregate speedup is
the sum of the pairs' direct medians over the sum of their replay
medians, and the recording overhead the sum of their compile medians
over the same direct sum.  Every run of each side is kept in
``BENCH_trace.json`` with the spread of the per-round totals, so a
reading can be judged against its noise.
The replay must verify the equivalence contract — bit-identical clock
and full-fidelity counters against what the recorder captured — or the
measurement is void: a fast wrong replay is worthless.

The script runs in the environment it is started in, not under the
end-to-end harness's ``PASS_ENV`` (pinned malloc mmap threshold, no
numpy huge pages).  The gate measures the speedup ``repro trace
replay`` gives a user in an ordinary process, and its repeatability
comes from the interleaved medians, not from a tuned allocator.

The rates, the per-pair and aggregate speedups, the compile times and
the equivalence verdict are persisted to ``BENCH_trace.json`` at the
repo root; the CI ``trace`` job gates on aggregate speedup >= 5x with
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
#: interleaved compile/direct/replay rounds per pair; each side's median
#: counts.
ROUNDS = 5
SIDES = ("compile", "direct", "replay")

#: the gate: aggregate replay speedup over the block path.
MIN_SPEEDUP = 5.0


def _spread(totals: list[float]) -> dict:
    """Median, min and max of one side's per-round totals (seconds)."""
    return {"median": round(statistics.median(totals), 6),
            "min": round(min(totals), 6), "max": round(max(totals), 6)}


def measure() -> dict:
    config = evaluation_machine(phys_pages=PHYS_PAGES)
    pairs = []
    round_totals = {side: [0.0] * ROUNDS for side in SIDES}
    all_equivalent = True
    for name in NAMES:
        for policy_name in POLICIES:
            policy = get_policy(policy_name)
            runs: dict = {side: [] for side in SIDES}
            for r in range(ROUNDS):
                # Round 0 compiles first, so every replay has a trace.
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    t0 = time.perf_counter()
                    if side == "compile":
                        trace = compile_workload(
                            make_workload(name, FULL_SCALE), policy,
                            config=config,
                            buffer_cache_pages=BUFFER_CACHE_PAGES)
                    elif side == "direct":
                        run_workload(make_workload(name, FULL_SCALE), policy,
                                     config=config,
                                     buffer_cache_pages=BUFFER_CACHE_PAGES)
                    else:
                        result = replay_trace(trace)
                    elapsed = time.perf_counter() - t0
                    runs[side].append(elapsed)
                    round_totals[side][r] += elapsed
                all_equivalent = all_equivalent and result.equivalent
            median = {side: statistics.median(runs[side]) for side in SIDES}
            pairs.append({
                "workload": name,
                "policy": policy_name,
                "n_ops": result.n_ops,
                "direct_seconds": round(median["direct"], 6),
                "direct_runs": [round(t, 6) for t in runs["direct"]],
                "compile_seconds": round(median["compile"], 6),
                "compile_runs": [round(t, 6) for t in runs["compile"]],
                "replay_seconds": round(median["replay"], 6),
                "replay_runs": [round(t, 6) for t in runs["replay"]],
                "speedup": round(median["direct"] / median["replay"], 2),
                "equivalent": result.equivalent,
                "mismatches": list(result.mismatches),
            })
    total = {side: sum(p[f"{side}_seconds"] for p in pairs) for side in SIDES}
    return {
        "scale": FULL_SCALE,
        "phys_pages": PHYS_PAGES,
        "buffer_cache_pages": BUFFER_CACHE_PAGES,
        "rounds": ROUNDS,
        "pairs": pairs,
        "direct_seconds": round(total["direct"], 6),
        "compile_seconds": round(total["compile"], 6),
        # compile over direct medians, both from boot to the end of execute
        "recording_overhead": round(total["compile"] / total["direct"], 2),
        "replay_seconds": round(total["replay"], 6),
        # each side's per-round totals over all pairs
        "compile_spread": _spread(round_totals["compile"]),
        "direct_spread": _spread(round_totals["direct"]),
        "replay_spread": _spread(round_totals["replay"]),
        "speedup": round(total["direct"] / total["replay"], 2),
        "equivalent": all_equivalent,
    }


def render(result: dict) -> str:
    lines = [
        "Trace replay vs the live block path "
        f"(paper scale {result['scale']}, "
        f"{result['phys_pages']}-page machine)",
        "",
        f"{'pair':<18} {'ops':>7} {'direct(s)':>10} {'compile(s)':>11} "
        f"{'replay(s)':>10} {'speedup':>8} {'equiv':>6}",
    ]
    for pair in result["pairs"]:
        tag = f"{pair['workload']}/{pair['policy']}"
        lines.append(
            f"{tag:<18} {pair['n_ops']:>7} {pair['direct_seconds']:>10.3f} "
            f"{pair['compile_seconds']:>11.3f} "
            f"{pair['replay_seconds']:>10.3f} {pair['speedup']:>7.2f}x "
            f"{str(pair['equivalent']).lower():>6}")
    lines.append("")
    lines.append(f"aggregate: {result['direct_seconds']:.3f}s direct / "
                 f"{result['replay_seconds']:.3f}s replay = "
                 f"{result['speedup']}x, equivalent: "
                 f"{str(result['equivalent']).lower()}")
    for side in SIDES:
        spread = result[f"{side}_spread"]
        lines.append(f"{side} per-round totals: median "
                     f"{spread['median']:.3f}s, range {spread['min']:.3f}"
                     f"-{spread['max']:.3f}s over {result['rounds']} rounds")
    lines.append(f"recording: {result['compile_seconds']:.3f}s compile / "
                 f"{result['direct_seconds']:.3f}s direct = "
                 f"{result['recording_overhead']}x")
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
