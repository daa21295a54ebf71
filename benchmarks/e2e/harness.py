"""The simulator's end-to-end benchmark, with a per-layer host-time split.

One run measures one workload (see ``workloads.py``) for a given number
of seconds.  It is made of passes, each a fresh single-threaded
subprocess that boots the workload (timed as set-up), runs its fixed-size
request loop (the measured window), checks every output, and reports.
Passes start one after another until the run has lasted the requested
seconds, and never fewer than three; end-to-end metrics are medians over
passes, and the latency percentiles are taken over every request of the
run.  A traced run alternates untraced and traced passes: the traced ones
give the per-layer split (``layers.py``), the pair gives the tracing
overhead.

Forms::

    # one run, as BENCHMARK.json's command; the last stdout line is the
    # result JSON ({"correct", "attempted", "failed", "metrics"})
    python3 benchmarks/e2e/harness.py --workload serve-read --seed 1 \\
        --seconds 20 --trace 0

    # one set: every workload, untraced then traced; appends to --out
    python3 benchmarks/e2e/harness.py run --seed 1 [--out sets.jsonl]

    # parent against change: paired sets, judged metric by metric
    python3 benchmarks/e2e/harness.py compare PARENT.jsonl CHANGE.jsonl

    # one pass in this process (what each subprocess runs); prints its
    # digest among the rest, which is how pins.json is refreshed
    python3 benchmarks/e2e/harness.py pass serve-read 1 0

Set-up and measurement read and write only inside the checkout: per-run
records and request spans land in ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"

#: a median needs at least three samples.
MIN_PASSES = 3
#: no pass starts unless it fits in this budget, so a run ends well
#: inside its 180 s limit.
RUN_BUDGET_S = 150.0
#: every pass is single-threaded, numpy included.  Its memory layout is
#: kept the same from run to run: strings hash alike, and numpy does not
#: ask for transparent huge pages, which the host grants or not
#: depending on its own memory state (moving peak RSS by up to 20%).
#: glibc's malloc keeps a fixed mmap threshold, so a freed kernel's
#: large arrays go back to the system and peak RSS counts live memory,
#: not the heap fragments that paper-live's reboots leave behind.
PASS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
            "NUMPY_MADVISE_HUGEPAGE": "0",
            "MALLOC_MMAP_THRESHOLD_": "131072"}


class PassError(RuntimeError):
    """A pass crashed or timed out: the run has no result."""


def _nearest_rank(values: list, q: float):
    """The q-th percentile by nearest rank: always an observed value."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _requests(op_ns: list) -> dict:
    """Host time spent in requests, in s, and its percentiles per
    request, in us."""
    return {"request_s": sum(op_ns) / 1e9,
            **{f"op_us_p{q}": _nearest_rank(op_ns, q) / 1e3
               for q in (50, 95, 99)}}


# ---- one pass, in this process ----------------------------------------------


def run_pass(workload: str, seed: int, traced: bool, spans_path=None,
             **sizes) -> dict:
    """Set up and run one pass of ``workload``; returns its record.

    ``sizes`` override the workload's fixed sizes (the tests pass tiny
    ones); the pinned digests hold only for the defaults.
    """
    import numpy

    import workloads
    from layers import LayerTimer
    from refclock import RefClock

    program = workloads.WORKLOADS[workload](seed, **sizes)
    # A traced pass attributes raw host time; an untraced one also marks
    # host speed, for the reference-speed end-to-end metrics.
    timer = LayerTimer() if traced else None
    ref = None if traced else RefClock()
    if ref is not None:
        ref.mark()
    t0 = time.perf_counter_ns()
    if timer is not None:
        timer.start()
    try:
        program.setup(timer, ref)
        t1 = time.perf_counter_ns()
        if ref is not None:
            ref.mark()
        t2 = time.perf_counter_ns()
        result = program.run(timer, ref)
        t3 = time.perf_counter_ns()
        if ref is not None:
            ref.mark()
    finally:
        if timer is not None:
            timer.detach()
            timer.stop()
    setup_spans = [(t0, t1), *result.setup_spans]
    raw = {"setup_s": sum(b - a for a, b in setup_spans) / 1e9,
           "wall_s": (t3 - t2) / 1e9,
           "pass_s": (t3 - t0) / 1e9,
           **_requests(result.op_ns)}
    if ref is None:
        op_ns = result.op_ns
        scaled = raw
    else:
        op_ns = [ref.scaled(t, t + ns)
                 for t, ns in zip(result.op_start_ns, result.op_ns)]
        scaled = {"setup_s": sum(ref.scaled(a, b)
                                 for a, b in setup_spans) / 1e9,
                  **_requests(op_ns)}
    record = {
        "workload": workload, "seed": seed, "traced": traced,
        **scaled,
        # every request's host time, for the run's pooled percentiles
        "op_ns": [round(t) for t in op_ns],
        "raw": raw,
        "host_slowdown": None if ref is None else ref.slowdown(),
        "sim_cycles": result.sim_cycles,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "req_cycles_p50": _nearest_rank(result.op_cycles, 50),
        "req_cycles_p99": _nearest_rank(result.op_cycles, 99),
        "digest": result.digest,
        "stats": result.stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "numpy": numpy.__version__,
    }
    if timer is not None:
        record["layers"] = timer.report()
        if spans_path is not None:
            timer.write_spans(spans_path)
    return record


# ---- one run: passes in subprocesses ----------------------------------------


def _spawn_pass(workload: str, seed: int, traced: bool, timeout: float,
                spans_path=None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "pass", workload,
           str(seed), str(int(traced))]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT,
                              env=dict(os.environ, **PASS_ENV))
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Start passes until the run has lasted ``seconds`` of wall time.

    Untraced runs need at least :data:`MIN_PASSES` passes.  Traced runs
    alternate an untraced and a traced pass.  The run's length, not the
    passes' windows, decides when to stop, so a slow host gives fewer
    passes rather than a longer run.
    """
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    start = time.monotonic()
    untraced: list = []
    traced: list = []
    longest = 0.0
    while True:
        began = time.monotonic()
        remaining = start + RUN_BUDGET_S - began
        if untraced and remaining < 1.5 * longest:
            break                       # the next pass would not fit
        untraced.append(_spawn_pass(workload, seed, False, remaining))
        if trace:
            traced.append(_spawn_pass(
                workload, seed, True, start + RUN_BUDGET_S - time.monotonic(),
                spans_path=None if traced else spans))
        now = time.monotonic()
        longest = max(longest, now - began)
        if now - start >= seconds and (trace or len(untraced) >= MIN_PASSES):
            break
    return {"untraced": untraced, "traced": traced}


def problems_of(workload: str, seed: int, run: dict) -> list[str]:
    """Everything wrong with a run's outputs; empty means correct."""
    import workloads

    pins = json.loads(PINS_PATH.read_text())
    passes = run["untraced"] + run["traced"]
    problems = []
    for p in passes:
        if p["failed"]:
            problems.append(f"{p['failed']} of {p['attempted']} requests "
                            f"failed: {p['errors']}")
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed disagree (traced and untraced "
                        f"included): {sorted(digests)}")
    pin = pins[workload]
    if pin["seed"] is None or pin["seed"] == seed:
        for d in sorted(digests - {pin["digest"]}):
            problems.append(f"digest {d} differs from the pinned "
                            f"{pin['digest']}")
    # A wrapper that misses its entry point leaves its layer without
    # calls and charges the time to the caller; a stray call means a
    # layer runs where the workload says it does not.
    must_run = workloads.WORKLOADS[workload].layers_run
    for p in run["traced"]:
        calls = {layer: tally["calls"] for layer, tally in p["layers"].items()}
        idle = sorted(layer for layer in must_run if not calls[layer])
        stray = sorted(layer for layer, n in calls.items()
                       if n and layer not in must_run)
        if idle:
            problems.append(f"layers that must run had no calls: {idle}")
        if stray:
            problems.append(f"layers that must not run had calls: {stray}")
    return problems


# ---- metrics ----------------------------------------------------------------


def end_to_end(passes: list) -> dict:
    """The end-to-end metrics of the untraced passes: medians over
    passes, and latency percentiles over all their requests.
    Throughput is per host second spent inside requests, so neither the
    client's checks between requests nor paper-live's reboots count."""
    def median(key):
        return statistics.median(p[key] for p in passes)
    op_ns = [t for p in passes for t in p["op_ns"]]
    return {
        "setup_s": median("setup_s"),
        "sim_mcycles_per_s": statistics.median(
            p["sim_cycles"] / p["request_s"] / 1e6 for p in passes),
        "op_us_p50": _nearest_rank(op_ns, 50) / 1e3,
        "op_us_p95": _nearest_rank(op_ns, 95) / 1e3,
        "peak_rss_mb": median("peak_rss_mb"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: list, traced: list) -> dict:
    """The per-layer metrics of a traced run.

    Self time, calls and simulated cycles are per pass (the mean over
    traced passes); ``share`` is a layer's part of all traced time.
    """
    from layers import LAYERS

    n = len(traced)
    total_ns = sum(sum(v["self_ns"] for v in p["layers"].values())
                   for p in traced)
    metrics = {}
    for layer in LAYERS:
        tallies = [p["layers"][layer] for p in traced]
        self_ns = sum(t["self_ns"] for t in tallies)
        metrics[f"{layer}.self_s"] = self_ns / 1e9 / n
        metrics[f"{layer}.share"] = self_ns / total_ns
        metrics[f"{layer}.calls"] = sum(t["calls"] for t in tallies) / n
        metrics[f"{layer}.sim_cycles"] = sum(t["sim_cycles"]
                                             for t in tallies) / n
    first = traced[0]
    s = first["stats"]
    accesses = (s.get("read_hits", 0) + s.get("read_misses", 0)
                + s.get("write_hits", 0) + s.get("write_misses", 0))
    metrics.update({
        "hw.cache.hit_ratio": _ratio(s.get("read_hits", 0)
                                     + s.get("write_hits", 0), accesses),
        "hw.cache.mgmt_cycles": s.get("flush_cycles", 0)
        + s.get("purge_cycles", 0),
        "hw.tlb.hit_ratio": _ratio(s.get("tlb_hits", 0),
                                   s.get("tlb_hits", 0)
                                   + s.get("tlb_misses", 0)),
        "kernel.fault.consistency_faults": s.get("consistency_faults", 0),
        "kernel.buffer_cache.hit_ratio": _ratio(
            s.get("bc_hits", 0), s.get("bc_hits", 0) + s.get("bc_misses", 0)),
        "kernel.disk.reads": s.get("disk_reads", 0),
        "kernel.disk.writes": s.get("disk_writes", 0),
        "trace.replay.ops": s.get("replay_ops", 0),
        "trace.overhead_frac": statistics.median(
            p["raw"]["pass_s"] for p in traced)
        / statistics.median(p["raw"]["pass_s"] for p in untraced) - 1,
        "sim.cycles": first["sim_cycles"],
        "sim.req_cycles_p50": first["req_cycles_p50"],
        "sim.req_cycles_p99": first["req_cycles_p99"],
    })
    return metrics


# ---- the environment record -------------------------------------------------


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git (a checkout
    without .git, or inside another repository, reports None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """A digest of every source file, naming the code even where there
    is no git history."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(run: dict) -> dict:
    passes = run["untraced"] + run["traced"]
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"] if passes else None,
        "cpu": _cpu_model(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "passes_untraced": len(run["untraced"]),
        "passes_traced": len(run["traced"]),
    }


# ---- commands ---------------------------------------------------------------


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _with_units(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run, checked and summarised as the result JSON plus a record."""
    spec = _spec()
    run = measure(workload, seed, seconds, trace)
    problems = problems_of(workload, seed, run)
    passes = run["untraced"] + run["traced"]
    if trace:
        metrics = _with_units(per_layer(run["untraced"], run["traced"]),
                              spec["per_layer"])
    else:
        metrics = _with_units(end_to_end(run["untraced"]),
                              spec["end_to_end"])
    result = {"correct": not problems,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": metrics}
    # Passes keep their own percentiles; the per-request times would make
    # the record tens of megabytes.
    record = {"env": environment(run), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace, "started": time.time(),
              "problems": problems, "result": result,
              "passes": [{k: v for k, v in p.items() if k != "op_ns"}
                         for p in passes]}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def cmd_measure(args) -> int:
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps({"env": record["env"]}))
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def cmd_run(args) -> int:
    """One set: every workload untraced (end-to-end) then traced."""
    spec = _spec()
    seconds = spec["run_seconds"]
    one_set = {"seed": args.seed, "seconds": seconds,
               "started": time.time(), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_workload(name, args.seed, seconds, trace=False)
        traced = run_workload(name, args.seed, seconds, trace=True)
        one_set.setdefault("env", plain["env"])
        one_set["workloads"][name] = {
            "correct": plain["result"]["correct"]
            and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"]
            + traced["result"]["attempted"],
            "failed": plain["result"]["failed"] + traced["result"]["failed"],
            "problems": plain["problems"] + traced["problems"],
            "passes": {"untraced": plain["env"]["passes_untraced"],
                       "traced": traced["env"]["passes_traced"]},
            "metrics": dict(plain["result"]["metrics"],
                            **traced["result"]["metrics"]),
        }
        values = plain["result"]["metrics"]
        print(f"{name}: " + ", ".join(
            f"{m['name']}={values[m['name']]['value']:.4g}"
            for m in spec["end_to_end"]), file=sys.stderr)
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(one_set) + "\n")
    print(json.dumps(one_set))
    return 0 if all(w["correct"] for w in one_set["workloads"].values()) \
        else 1


# ---- compare: parent against change -----------------------------------------


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """Classify one (metric, workload) pair from paired samples.

    improved: at least ten pairs, the change wins at least 9/10 of them
    (ties count for neither), and the medians differ in its favour by
    more than the parent's interquartile range.  Otherwise, unresolved
    when the parent's spread is wider than the bound (unless every change
    sample beats every parent sample); regressed when the change's median
    is worse than the parent's by more than the bound; else unchanged.
    """
    sign = 1 if better == "lower" else -1      # sign * (c - p) > 0: worse
    n = len(parent)
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse = sign * (med_c - med_p) / med_p
    spread = iqr / med_p
    every_better = (max(change) < min(parent) if sign > 0
                    else min(change) > max(parent))
    if n >= 10 and wins >= 0.9 * n and worse < 0 \
            and abs(med_c - med_p) > iqr:
        verdict = "improved"
    elif spread > bound and not every_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "pairs": n, "wins": wins,
            "parent_median": med_p, "change_median": med_c,
            "parent_iqr": iqr, "worse_frac": worse, "bound": bound}


def compare(parent_sets: list, change_sets: list, spec: dict) -> dict:
    n = min(len(parent_sets), len(change_sets))
    parent_sets, change_sets = parent_sets[:n], change_sets[:n]
    firsts = [p["started"] < c["started"]
              for p, c in zip(parent_sets, change_sets)]
    report = {"pairs": n,
              "alternated": all(a != b for a, b in zip(firsts, firsts[1:])),
              "rows": [], "layers": {}}
    for w in spec["workloads"]:
        name = w["name"]
        sides = [[s["workloads"][name] for s in sets]
                 for sets in (parent_sets, change_sets)]
        valid = all(r["correct"] for side in sides for r in side)
        for m in spec["end_to_end"]:
            p, c = ([r["metrics"][m["name"]]["value"] for r in side]
                    for side in sides)
            row = judge(p, c, m["better"], m["bound"])
            if not valid:
                row["verdict"] = "invalid"
            report["rows"].append(dict(row, workload=name, metric=m["name"]))
        report["layers"][name] = {
            m["name"]: [statistics.median(r["metrics"][m["name"]]["value"]
                                          for r in side) for side in sides]
            for m in spec["per_layer"] if m["name"].endswith(".self_s")}
    return report


def _read_sets(path: str) -> list:
    with open(path) as sets:
        return [json.loads(line) for line in sets if line.strip()]


def cmd_compare(args) -> int:
    spec = _spec()
    report = compare(_read_sets(args.parent), _read_sets(args.change), spec)
    if not report["alternated"]:
        print("warning: the sides did not alternate which ran first",
              file=sys.stderr)
    for row in report["rows"]:
        print(f"{row['workload']:<13} {row['metric']:<18} "
              f"{row['parent_median']:>12.5g} -> {row['change_median']:<12.5g}"
              f" wins {row['wins']}/{row['pairs']:<3} {row['verdict']}",
              file=sys.stderr)
    print(json.dumps(report))
    bad = {"regressed", "invalid"}
    return 1 if any(r["verdict"] in bad for r in report["rows"]) else 0


def cmd_pass(args) -> int:
    record = run_pass(args.workload, args.seed, bool(args.traced),
                      spans_path=args.spans)
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Turn SIGTERM into an exception, so a running pass is killed and
    # waited for (by subprocess.run) rather than left orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv and argv[0] in ("run", "compare", "pass"):
        parser = argparse.ArgumentParser(prog="harness.py")
        sub = parser.add_subparsers(dest="command", required=True)
        p_run = sub.add_parser("run", help="one set of every workload")
        p_run.add_argument("--seed", type=int, default=1)
        p_run.add_argument("--out", help="append the set to this JSONL file")
        p_cmp = sub.add_parser("compare", help="parent vs change sets")
        p_cmp.add_argument("parent")
        p_cmp.add_argument("change")
        p_pass = sub.add_parser("pass", help="one pass in this process")
        p_pass.add_argument("workload")
        p_pass.add_argument("seed", type=int)
        p_pass.add_argument("traced", type=int, choices=(0, 1))
        p_pass.add_argument("spans", nargs="?")
        args = parser.parse_args(argv)
        command = {"run": cmd_run, "compare": cmd_compare,
                   "pass": cmd_pass}[args.command]
    else:
        parser = argparse.ArgumentParser(prog="harness.py")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        command = cmd_measure
    try:
        return command(args)
    except PassError as error:
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
