"""Command-line interface: regenerate the paper's evaluation artifacts.

Usage::

    python -m repro table1 [--scale 1.0]
    python -m repro table2
    python -m repro table4 [--scale 1.0] [--workload kernel-build]
    python -m repro table5 [--scale 1.0]
    python -m repro micro [--iterations 20000]
    python -m repro run <workload> [--policy F] [--scale 1.0]
                                   [--inject PLAN --seed N] [--conform]
                                   [--trace-events FILE] [--cpus N]
                                   [--geometry SPEC] [--list-points]
    python -m repro chaos [--plans 50] [--preset mixed] [--steps 200]
                          [--jobs N] [--cpus N] [--policy NAME]
                          [--list-points]
    python -m repro policies
    python -m repro smp [--out FILE] [--jobs N]
    python -m repro conform [--sequences 200] [--seed 0] [--scale 0.25]
                            [--mutant NAME] [--jobs N]
    python -m repro sweep [--workload kernel-build] [--policies A,F]
                          [--sizes 32,64,128,256] [--geometry SPEC]
                          [--jobs N] [--out FILE]
    python -m repro farm {stats,gc,clear,run} [--specs FILE] [--jobs N]
    python -m repro trace events <workload> [--out FILE] [--diff GOLDEN]
    python -m repro trace compile <workload> --out FILE [--policy F]
                          [--inject PLAN --seed N] [--conform]
                          [--trace-events]
    python -m repro trace replay <FILE> [--events-out FILE]
    python -m repro metrics [workload|micro] [--format json|prom]
    python -m repro profile <workload> [--policy F] [--scale 1.0]
    python -m repro all [--scale 1.0]

Every command prints the regenerated table to stdout; ``run`` executes a
single workload under a named policy configuration and prints the
counters the tables are built from.  ``--inject`` arms the deterministic
fault injector for the run (see docs/fault-injection.md for the plan
grammar); ``chaos`` runs the detected-or-harmless harness over a batch of
seeded random fault plans.  ``--cpus N`` boots an N-CPU coherent cluster
(Section 3.3, docs/smp.md): ``run`` spreads the workload's tasks over
the CPUs, ``chaos`` arms the ``smp.snoop.*`` race points and shadows
every CPU's cache with the lockstep oracle, and ``smp`` regenerates the
1..8-CPU aligned-vs-unaligned scaling curve (``BENCH_smp.json``).
``--geometry SPEC`` reshapes the cache hierarchy for ``run`` and
``sweep``: '+'-separated tokens ``<N>way`` (set-associative L1),
``victim<N>`` (fully associative victim cache), ``l2[:SIZE[/WAYS]]``
(unified physically indexed L2), ``wt``, ``pi`` — every configuration
obeys the same derived Table 2 (docs/hierarchy.md).
``--list-points`` prints the injection-point catalog.  ``conform`` runs the lockstep conformance
engine (see docs/conformance.md): an explorer sweep, an arc-coverage run,
and live shadowing of the paper workloads — or, with ``--mutant``,
demonstrates detection and shrinking against a seeded bug.  ``trace
events`` records a workload's consistency event trace, optionally
writing it as JSON lines or diffing it against a golden artifact;
``trace compile`` lowers a whole run into a replayable op-stream
artifact (composing with ``--inject``/``--conform``/``--trace-events``)
and ``trace replay`` re-executes one through the threaded-code
interpreter, verifying bit-identical counters, clock and event hashes
(see docs/trace-compiler.md).  Each ``trace`` mode accepts only its own
flags.
``metrics`` runs a
workload (or the alignment microbenchmark) and exports the complete
counter state as JSON or Prometheus text; ``profile`` runs a workload
under the cycle-attribution profiler and prints the cycle flamegraph;
``policies`` lists every registered consistency policy — the paper's
flag bags plus external strategies (``rlt``, ``vespa``; see
docs/policies.md) usable wherever ``--policy`` is accepted;
``run --trace-events FILE`` streams the structured event bus (flushes,
purges, faults, DMA, injections, divergences) to a JSONL file (see
docs/observability.md).

``sweep``, ``chaos`` and ``conform`` run their batches as simulation
farm jobs: in this process by default, across a worker pool with
``--jobs N`` (per-job timeouts, retries of hung or dead workers; a job
that raises fails at once), and through a content-addressed result
cache that makes reruns near-free (see docs/farm.md); ``farm`` inspects and
maintains that cache (``stats``/``gc``/``clear``) or runs an arbitrary
spec batch from a JSONL file (``run --specs``).  Farm commands accept
``--trace-events FILE`` to stream fleet progress (jobs queued, started,
done, retried, cache hits) as JSON lines.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.charts import render_ladder_chart
from repro.analysis.comparison import render_table5
from repro.analysis.experiments import (DEFAULT_SCALE, FailStop, boot,
                                        evaluation_machine, make_workload,
                                        run_alignment_micro, run_table1,
                                        run_table4, run_table5_probe,
                                        run_workload)
from repro.analysis.tables import (render_micro, render_overhead_summary,
                                   render_table1, render_table4)
from repro.core.transitions import render_table2
from repro.errors import ConfigurationError, open_input
from repro.policy import get_policy
from repro.trace.format import TraceFormatError

#: the workload names the evaluation (and the golden traces) cover.
WORKLOAD_NAMES = ("afs-bench", "latex-paper", "kernel-build")


def _cmd_table1(args) -> None:
    print(render_table1(run_table1(scale=args.scale)))


def _cmd_table2(args) -> None:
    print(render_table2())


def _cmd_table4(args) -> None:
    names = (args.workload,) if args.workload else None
    results = run_table4(scale=args.scale, workload_names=names)
    print(render_table4(results))
    print()
    print(render_overhead_summary([m[-1] for m in results.values()]))
    if getattr(args, "chart", False):
        for metrics in results.values():
            print()
            print(render_ladder_chart(metrics))


def _cmd_table5(args) -> None:
    print(render_table5(run_table5_probe(scale=args.scale)))


def _cmd_micro(args) -> None:
    aligned, unaligned = run_alignment_micro(iterations=args.iterations)
    print(render_micro(aligned, unaligned))


def _print_points() -> None:
    """``--list-points``: the injection-point catalog, grouped by class."""
    from repro.faults.injector import POINT_DESCRIPTIONS, classify_point

    groups: dict[str, list[str]] = {}
    for point in sorted(POINT_DESCRIPTIONS):
        groups.setdefault(classify_point(point), []).append(point)
    for kind in ("consistency", "snoop-race", "recoverable", "terminal"):
        print(f"{kind}:")
        for point in groups.pop(kind, []):
            print(f"  {point:<32} {POINT_DESCRIPTIONS[point]}")
    for kind, points in sorted(groups.items()):  # any future classes
        print(f"{kind}:")
        for point in points:
            print(f"  {point:<32} {POINT_DESCRIPTIONS[point]}")


def _fail_stop(workload: str, policy, outcome: FailStop) -> None:
    """Report a run an armed injector stopped, and exit 1."""
    print(f"{workload} under configuration {policy.name}: "
          f"fail-stop after {len(outcome.injections)} injections")
    print(f"  detected: {type(outcome.error).__name__}: {outcome.error}")
    for record in outcome.injections:
        print(f"    {record}")
    raise SystemExit(1)


def _cmd_run(args) -> None:
    if args.list_points:
        return _print_points()
    policy = get_policy(args.policy)
    config = evaluation_machine(n_cpus=args.cpus)
    if args.geometry:
        from repro.hw.params import apply_geometry

        config = apply_geometry(config, args.geometry)
    booted = boot(policy, config, inject=args.inject, seed=args.seed,
                  conform=args.conform)
    kernel, injector, monitor = booted.kernel, booted.injector, booted.monitor
    trace_path, trace_file = args.trace_events, None
    trace_counts: dict[str, int] = {}
    if trace_path:
        bus = kernel.machine.bus.enable()
        trace_file = open(trace_path, "w")

        def _write_event(event):
            trace_file.write(event.to_json() + "\n")
            trace_counts[event.kind] = trace_counts.get(event.kind, 0) + 1

        bus.subscribe(_write_event)
    try:
        outcome = booted.run(make_workload(args.workload, args.scale))
    finally:
        if trace_file is not None:
            trace_file.close()
            total = sum(trace_counts.values())
            summary = ", ".join(f"{kind}={n}" for kind, n
                                in sorted(trace_counts.items()))
            print(f"trace events: {total} written to {trace_path}"
                  + (f" ({summary})" if summary else ""))
    if isinstance(outcome, FailStop):
        _fail_stop(args.workload, policy, outcome)
    metrics = outcome
    print(f"{metrics.workload_name} under configuration {policy.name} "
          f"({policy.description}):")
    print(f"  elapsed:            {metrics.seconds:.4f}s "
          f"({metrics.cycles} cycles)")
    print(f"  mapping faults:     {metrics.mapping_faults.count}")
    print(f"  consistency faults: {metrics.consistency_faults.count}")
    print(f"  dcache flushes:     {metrics.dcache_flushes.count} "
          f"(DMA {metrics.dma_read_flushes.count}, "
          f"d->i {metrics.d_to_i_flushes.count})")
    print(f"  dcache purges:      {metrics.dcache_purges.count} "
          f"(new-mapping {metrics.new_mapping_purges.count})")
    print(f"  icache purges:      {metrics.icache_purges.count}")
    print(f"  DMA:                {metrics.dma_reads} reads, "
          f"{metrics.dma_writes} writes")
    counters = kernel.machine.counters
    if args.cpus > 1:
        print(f"  snoop coherence:    "
              f"{counters.coherence_invalidations} invalidations, "
              f"{counters.coherence_writebacks} write-backs "
              f"({args.cpus} CPUs)")
    if kernel.machine.hierarchy is not None:
        print(f"  cache hierarchy:    {counters.victim_hits} victim hits "
              f"({counters.victim_captures} captures), "
              f"{counters.l2_hits} L2 hits ({counters.l2_fills} fills) "
              f"[{args.geometry}]")
    print(f"  VI-cache overhead:  "
          f"{100 * metrics.consistency_overhead_fraction:.3f}%")
    if injector is not None:
        print(f"  fault injections:   {len(injector.audit)} "
              f"(plan seed {args.seed})")
        for record in injector.audit:
            print(f"    {record}")
    if monitor is not None:
        print(f"  conformance:        {monitor.summary()}")
        for divergence in monitor.divergences:
            print(f"    {divergence}")
        # Under injection divergences are expected; without, the run
        # left the Table 2 model.
        if not monitor.ok and injector is None:
            raise SystemExit(1)


def _farm_setup(args, default_cache: bool = False):
    """Build an :class:`~repro.farm.Executor` from a command's farm
    flags.  Returns ``(executor, finish)``; ``finish()`` closes the
    ``--trace-events`` stream (a no-op without one)."""
    from repro.farm import DEFAULT_TIMEOUT, Executor, ResultCache

    cache = None
    if not args.no_cache and (args.cache_dir or default_cache):
        cache = ResultCache(args.cache_dir)
    executor = Executor(jobs=args.jobs, cache=cache,
                        timeout=args.timeout or DEFAULT_TIMEOUT)
    if not args.trace_events:
        return executor, lambda: None
    handle = open(args.trace_events, "w")
    executor.bus.enable().subscribe(
        lambda event: handle.write(event.to_json() + "\n"))
    return executor, handle.close


def _farm_flags(args) -> bool:
    """Whether a command whose batches always run on the farm was given
    a farm flag, and so reports the ``farm:`` summary line."""
    return bool(args.jobs > 1 or args.cache_dir or args.trace_events)


def _farm_line(executor, stats=None) -> str:
    s = stats if stats is not None else executor.stats
    line = (f"farm: {s.jobs} jobs, {s.done} done, {s.failed} failed, "
            f"{s.cache_hits} cache hits, {s.retries} retries "
            f"({executor.jobs} worker{'s' if executor.jobs != 1 else ''}, "
            f"{s.wall_seconds:.2f}s)")
    if s.degraded:
        line += " [degraded to serial]"
    return line


def _merge_stats(totals, stats):
    """Sum FarmStats across several ``Executor.run`` calls (each call
    resets ``executor.stats``; multi-suite commands want the total)."""
    if totals is None:
        return stats
    totals.jobs += stats.jobs
    totals.done += stats.done
    totals.failed += stats.failed
    totals.cache_hits += stats.cache_hits
    totals.retries += stats.retries
    totals.worker_deaths += stats.worker_deaths
    totals.degraded |= stats.degraded
    totals.wall_seconds += stats.wall_seconds
    return totals


def _cmd_chaos(args) -> None:
    if getattr(args, "list_points", False):
        return _print_points()
    from repro.faults import run_chaos_suite
    from repro.faults.harness import PRESETS, render_suite

    presets = ([args.preset] if args.preset != "all"
               else [p for p in PRESETS
                     if p != "control"
                     and (args.cpus > 1 or p != "snoop")])
    executor, finish = _farm_setup(args)
    reports = []
    totals = None
    try:
        for preset in presets:
            reports += run_chaos_suite(
                range(args.seed, args.seed + args.plans),
                preset=preset, steps=args.steps, executor=executor,
                n_cpus=args.cpus, policy=args.policy)
            totals = _merge_stats(totals, executor.stats)
    finally:
        finish()
    print(render_suite(reports))
    if args.cpus > 1:
        per_cpu: dict[int, int] = {}
        for report in reports:
            for cpu, n in report.conform_per_cpu.items():
                per_cpu[cpu] = per_cpu.get(cpu, 0) + n
        shadows = ", ".join(f"cpu{cpu}={n}"
                            for cpu, n in sorted(per_cpu.items()))
        print(f"per-CPU lockstep divergences ({args.cpus} CPUs): "
              f"{shadows or 'none'}")
    if _farm_flags(args):
        print(_farm_line(executor, totals))
    if any(not r.ok for r in reports):
        raise SystemExit(1)


def _cmd_smp(args) -> None:
    import json

    from repro.workloads.smp import check, measure, render

    executor, finish = _farm_setup(args, default_cache=True)
    try:
        result = measure(executor)
    finally:
        finish()
    print(render(result))
    print(_farm_line(executor))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"wrote SMP scaling curve to {args.out}")
    failures = check(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    if failures:
        raise SystemExit(1)


def _cmd_serve(args) -> None:
    import json

    from repro.farm import farm_serve

    executor, finish = _farm_setup(args, default_cache=False)
    sizing = {key: getattr(args, key) for key in
              ("hot_files", "file_pages", "frontends",
               "buffer_cache_pages")
              if getattr(args, key) is not None}
    try:
        report = farm_serve(args.cohorts, args.users_per_cohort, executor,
                            policy=args.policy, conform=args.conform,
                            **sizing)
    finally:
        finish()
    print(report.summary())
    print(_farm_line(executor))
    if args.out:
        payload = {"report": report.to_dict(),
                   "farm": executor.stats.as_dict()}
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote serve report to {args.out}")


def _cmd_conform(args) -> None:
    from repro.conformance import (ArcCoverage, ConformanceSummary, Explorer,
                                   apply_mutant)

    if args.mutant:
        with apply_mutant(args.mutant):
            report = Explorer(num_cache_pages=args.cache_pages,
                              seed=args.seed).explore(args.sequences)
        print(report.render())
        if report.ok:
            print(f"mutant {args.mutant}: NOT DETECTED")
            raise SystemExit(1)
        first = min(ce.events_until_detection
                    for ce in report.counterexamples)
        shortest = min(len(ce.shrunk) for ce in report.counterexamples)
        print(f"mutant {args.mutant}: detected (first after {first} events, "
              f"shortest shrunk witness {shortest} events)")
        return

    from repro.farm import JobSpec, farm_explore, job_payloads

    failed = False
    executor, finish = _farm_setup(args)
    try:
        # 1. The seeded sweep: many deep sequences, zero divergences
        #    expected; --jobs N splits it into independently seeded
        #    shards whose coverage merges.
        sweep = farm_explore(args.seed, args.sequences, args.cache_pages,
                             executor)
        totals = _merge_stats(None, executor.stats)
        print(sweep.render())
        failed |= not sweep.ok

        # 2. The arc-coverage run: keep going until all 48 arcs are seen.
        cover = Explorer(num_cache_pages=args.cache_pages,
                         seed=args.seed + 1).explore_until_covered()
        print(f"coverage run: all arcs after {cover.sequences} sequences / "
              f"{cover.events} events")
        failed |= not (cover.ok and cover.coverage.complete)

        # 3. Live shadowing of the paper workloads.
        policy = get_policy(args.policy)
        merged = ArcCoverage()
        merged.merge(sweep.coverage)
        merged.merge(cover.coverage)
        specs = [JobSpec.workload(workload=name, policy=policy.name,
                                  scale=args.scale, conform=True)
                 for name in WORKLOAD_NAMES]
        payloads = job_payloads(executor, specs)
        totals = _merge_stats(totals, executor.stats)
        for name, payload in zip(WORKLOAD_NAMES, payloads):
            shadow = payload["conform"]
            coverage = ArcCoverage.from_dict(shadow["coverage"])
            summary = ConformanceSummary(
                events=shadow["events"], frames=shadow["frames"],
                divergences=len(shadow["divergences"]),
                coverage_percent=coverage.percent)
            print(f"{name:>12}: {summary}")
            merged.merge(coverage)
            failed |= not shadow["ok"]
            for divergence in shadow["divergences"]:
                print(f"              {divergence}")
    finally:
        finish()

    print(f"combined {merged.summary()}")
    if _farm_flags(args):
        print(_farm_line(executor, totals))
    if failed:
        print("verdict: DIVERGED from the Table 2 model")
        raise SystemExit(1)
    print("verdict: conforms to the Table 2 model")


def _cmd_sweep(args) -> None:
    import json

    from repro.analysis.sweep import render_sweep, run_sweep, sweep_to_dict

    sizes = tuple(int(s) for s in args.sizes.split(","))
    policies = tuple(p.strip() for p in args.policies.split(",")
                     if p.strip())
    # Sweeps default the cache *on*: every point is a pure function of
    # (workload, policy, size, scale), so a repeated sweep answers from
    # disk (--no-cache forces recomputation).
    executor, finish = _farm_setup(args, default_cache=True)
    try:
        points = run_sweep(args.workload, policies, sizes,
                           scale=args.scale, executor=executor,
                           geometry=args.geometry)
    finally:
        finish()
    print(render_sweep(points, args.workload))
    print(_farm_line(executor))
    if args.out:
        artifact = sweep_to_dict(points, args.workload, args.scale)
        if args.geometry:
            artifact["geometry"] = args.geometry
        artifact["farm"] = executor.stats.as_dict()
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")
        print(f"wrote sweep to {args.out}")


def _cmd_farm(args) -> None:
    import json

    from repro.farm import JobSpec, ResultCache, code_fingerprint

    if args.action == "stats":
        print(json.dumps(ResultCache(args.cache_dir)
                         .stats(code_fingerprint()), indent=2))
        return
    if args.action == "clear":
        cache = ResultCache(args.cache_dir)
        print(f"cleared {cache.clear()} cached results from {cache.root}")
        return
    if args.action == "gc":
        cache = ResultCache(args.cache_dir)
        removed = cache.gc(code_fingerprint())
        print(f"evicted {removed} stale results from {cache.root}")
        return

    # action == "run": execute a JSON-lines spec batch.
    if not args.specs:
        raise SystemExit("farm run requires --specs FILE.jsonl")
    specs = []
    with open_input(args.specs) as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    specs.append(JobSpec.from_json(line))
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"{args.specs}:{number}: {exc}") from None
    executor, finish = _farm_setup(args, default_cache=True)
    try:
        outcomes = executor.run(specs)
    finally:
        finish()
    for outcome in outcomes:
        status = ("cached" if outcome.cache_hit
                  else "ok" if outcome.ok else str(outcome.failure))
        print(f"  {outcome.spec.label():<44} {status}")
    print(_farm_line(executor))
    if args.out:
        with open(args.out, "w") as handle:
            for outcome in outcomes:
                failure = outcome.failure
                handle.write(json.dumps({
                    "spec": outcome.spec.to_dict(),
                    "ok": outcome.ok,
                    "cache_hit": outcome.cache_hit,
                    "payload": outcome.payload,
                    "failure": None if failure is None else {
                        "kind": failure.kind, "message": failure.message,
                        "attempts": failure.attempts,
                        "traceback": failure.traceback},
                }) + "\n")
        print(f"wrote {len(outcomes)} outcomes to {args.out}")
    if any(not o.ok for o in outcomes):
        raise SystemExit(1)


def _cmd_trace_events(args) -> None:
    from repro.analysis.trace import Tracer, diff_traces
    from repro.obs import load_jsonl, write_jsonl

    # Read the golden first: a missing one fails before the simulation.
    golden = load_jsonl(args.diff) if args.diff else None
    policy = get_policy(args.policy)
    kernel = boot(policy).kernel
    with Tracer(kernel) as tracer:
        run_workload(make_workload(args.workload, args.scale), policy,
                     kernel=kernel)
    print(f"{args.workload} under configuration {policy.name}: "
          f"{len(tracer.events)} events")
    summary = tracer.summary()
    for kind in sorted(k for k in summary if ":" not in k):
        print(f"  {kind:<10} {summary[kind]}")
    if args.out:
        count = write_jsonl(tracer.events, args.out)
        print(f"wrote {count} events to {args.out}")
    if golden is not None:
        diff = diff_traces(golden, tracer.events)
        if diff is not None:
            print(f"trace DIVERGES from {args.diff}:")
            print(diff.render())
            raise SystemExit(1)
        print(f"trace matches {args.diff} ({len(golden)} events)")


def _cmd_trace_compile(args) -> None:
    from repro.trace import compile_workload, save_trace

    policy = get_policy(args.policy)
    trace = compile_workload(make_workload(args.workload, args.scale),
                             policy, inject=args.inject, seed=args.seed,
                             conform=args.conform,
                             trace_events=args.record_events)
    if isinstance(trace, FailStop):
        _fail_stop(args.workload, policy, trace)
    save_trace(args.out, trace)
    print(f"compiled {args.workload}/{policy.name} at scale {args.scale}: "
          f"{len(trace.ops)} ops, {len(trace.values)} values, "
          f"{trace.n_events} events, "
          f"{trace.end_clock - trace.start_clock} cycles -> {args.out}")
    if args.conform:
        print(f"conformance divergences recorded: "
              f"{trace.meta['divergences']}")
        if trace.meta["divergences"] and not args.inject:
            raise SystemExit(1)


def _cmd_trace_replay(args) -> None:
    from repro.trace import load_trace, replay_trace

    trace = load_trace(args.file)
    result = replay_trace(trace)
    print(f"replayed {trace.meta.get('workload')}: {result.n_ops} ops, "
          f"clock {result.clock}, {result.n_events} events")
    if args.events_out and result.events_jsonl is not None:
        with open(args.events_out, "w") as handle:
            handle.write(result.events_jsonl)
        print(f"wrote replayed events to {args.events_out}")
    print(f"equivalent: {'true' if result.equivalent else 'FALSE'}")
    if not result.equivalent:
        for mismatch in result.mismatches:
            print(f"  {mismatch}")
        raise SystemExit(1)


def _cmd_metrics(args) -> None:
    from repro.obs import to_json, to_prometheus, verify_export
    from repro.workloads.microbench import run_alias_write_loop

    policy = get_policy(args.policy)
    kernel = boot(policy).kernel
    if args.target == "micro":
        run_alias_write_loop(kernel, args.iterations, aligned=False)
    else:
        run_workload(make_workload(args.target, args.scale), policy,
                     kernel=kernel)
    counters, clock = kernel.machine.counters, kernel.machine.clock
    # Every export is reconciled against the live counters before it is
    # printed; a mismatch is a bug, not a report.
    verify_export(counters, clock)
    if args.format == "prom":
        print(to_prometheus(counters, clock), end="")
    else:
        print(to_json(counters, clock))


def _cmd_profile(args) -> None:
    from repro.obs import profile_run

    report = profile_run(args.workload, policy=get_policy(args.policy),
                         scale=args.scale)
    print(report.render())
    if not report.ok:
        raise SystemExit(1)


def _cmd_policies(args) -> None:
    """``repro policies``: the registered consistency-policy catalog."""
    from repro.policy import all_policies

    origins = {"paper": "the A-F ladder and G (Sections 4-5)",
               "table5": "the Table 5 related systems",
               "external": "strategies from follow-on work"}
    by_origin: dict[str, list] = {}
    for policy in all_policies():
        by_origin.setdefault(policy.origin, []).append(policy)
    for origin in ("paper", "table5", "external"):
        group = by_origin.pop(origin, [])
        if not group:
            continue
        print(f"{origin} — {origins.get(origin, '')}:")
        for policy in group:
            print(f"  {policy.name:<12} {policy.description}")
    for origin, group in sorted(by_origin.items()):  # any future origins
        print(f"{origin}:")
        for policy in group:
            print(f"  {policy.name:<12} {policy.description}")


def _cmd_all(args) -> None:
    _cmd_table1(args)
    print()
    _cmd_table2(args)
    print()
    _cmd_table4(argparse.Namespace(scale=args.scale, workload=None))
    print()
    _cmd_table5(args)
    print()
    _cmd_micro(argparse.Namespace(iterations=10_000))


def _policy_name(text: str) -> str:
    """argparse type of ``--policy``: a registered policy name, checked
    at parse time so a typo is a usage error, not a traceback."""
    try:
        get_policy(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _policy_names(text: str) -> str:
    """argparse type of ``--policies``: comma-separated policy names."""
    for name in text.split(","):
        if name.strip():
            _policy_name(name.strip())
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of Wheeler & Bershad, "
                    "'Consistency Management for Virtually Indexed Caches' "
                    "(ASPLOS 1992).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    def add_farm_args(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="farm worker processes (1 = every job in "
                            "this process; results are identical at any N)")
        p.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                       help="result-cache directory (default "
                            "$REPRO_FARM_CACHE or ~/.cache/repro-farm)")
        p.add_argument("--no-cache", action="store_true", dest="no_cache",
                       help="disable the content-addressed result cache")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (enforced in "
                            "pool mode)")
        p.add_argument("--trace-events", metavar="FILE",
                       dest="trace_events",
                       help="stream farm progress events (queued, start, "
                            "done, retry, cache-hit) to FILE as JSON "
                            "lines")

    p = add("table1", _cmd_table1, "old-vs-new benchmark comparison")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)

    add("table2", _cmd_table2, "the consistency state transition table")

    p = add("table4", _cmd_table4, "the A-F configuration ladder")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--workload",
                   choices=["afs-bench", "latex-paper", "kernel-build"])
    p.add_argument("--chart", action="store_true",
                   help="append ASCII bar charts")

    p = add("table5", _cmd_table5, "the related-systems comparison")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)

    p = add("micro", _cmd_micro, "the Section 2.5 alignment loop")
    p.add_argument("--iterations", type=int, default=20_000)

    add("policies", _cmd_policies,
        "list the registered consistency policies (name, origin, "
        "description)")

    p = add("run", _cmd_run, "run one workload under one configuration")
    p.add_argument("workload",
                   choices=["afs-bench", "latex-paper", "kernel-build"])
    p.add_argument("--policy", default="F", type=_policy_name,
                   help="A..F, G, a Table 5 system, or an external "
                        "strategy (rlt, vespa); see `repro policies`")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--inject", metavar="PLAN",
                   help="fault plan: 'point[:rate[:burst]],...' "
                        "(see docs/fault-injection.md)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the fault plan's RNG")
    p.add_argument("--conform", action="store_true",
                   help="shadow the run with the lockstep conformance "
                        "monitor (record-only when --inject is armed)")
    p.add_argument("--trace-events", metavar="FILE", dest="trace_events",
                   help="enable the structured event bus and stream every "
                        "event (flushes, purges, faults, DMA, injections, "
                        "divergences) to FILE as JSON lines")
    p.add_argument("--cpus", type=int, default=1,
                   help="run on an N-CPU coherent cluster (Section 3.3); "
                        "tasks spread round-robin over the CPUs")
    p.add_argument("--geometry", metavar="SPEC",
                   help="cache-hierarchy geometry: '+'-separated tokens "
                        "<N>way, victim<N>, l2[:SIZE[/WAYS]], wt, pi "
                        "(e.g. '2way+victim8+l2:256k/4'; see "
                        "docs/hierarchy.md)")
    p.add_argument("--list-points", action="store_true",
                   dest="list_points",
                   help="print the fault-injection point catalog and exit")

    p = add("chaos", _cmd_chaos,
            "detected-or-harmless harness over random fault plans")
    p.add_argument("--plans", type=int, default=50,
                   help="number of seeded plans per preset")
    p.add_argument("--preset", default="mixed",
                   choices=["control", "transient", "consistency",
                            "recovery", "mixed", "snoop", "all"])
    p.add_argument("--steps", type=int, default=200,
                   help="stressor steps per run")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the batch")
    p.add_argument("--cpus", type=int, default=1,
                   help="boot each run on an N-CPU coherent cluster: "
                        "snoop-race points arm and the conformance shadow "
                        "checks every CPU's cache")
    p.add_argument("--policy", default=None, type=_policy_name,
                   help="consistency policy for every run (any name from "
                        "`repro policies`; default: the paper's new "
                        "system)")
    p.add_argument("--list-points", action="store_true",
                   dest="list_points",
                   help="print the fault-injection point catalog and exit")
    add_farm_args(p)

    p = add("smp", _cmd_smp,
            "the Section 3.3 SMP scaling curve (1..8 CPUs, aligned vs "
            "unaligned), farmed and cached")
    p.add_argument("--out", metavar="FILE",
                   help="write the curve (and farm stats) as JSON")
    add_farm_args(p)

    p = add("serve", _cmd_serve,
            "serve a simulated user population through the Unix server, "
            "cohort-sharded across the farm")
    p.add_argument("--cohorts", type=int, default=8,
                   help="user cohorts; each is one farm job on a fresh "
                        "kernel")
    p.add_argument("--users-per-cohort", type=int, default=500,
                   dest="users_per_cohort",
                   help="simulated users per cohort (~4.5 syscalls each)")
    p.add_argument("--policy", default=None, type=_policy_name,
                   help="consistency configuration (A..F, G, or a Table 5 "
                        "system; default the paper's new system)")
    p.add_argument("--conform", action="store_true",
                   help="shadow every cohort with the lockstep Table 2 "
                        "monitor and merge arc coverage (slow)")
    p.add_argument("--hot-files", type=int, default=None, dest="hot_files",
                   help="pre-existing on-disk files the users read")
    p.add_argument("--file-pages", type=int, default=None,
                   dest="file_pages", help="pages per hot file")
    p.add_argument("--frontends", type=int, default=None,
                   help="frontend processes multiplexing each cohort")
    p.add_argument("--buffer-cache-pages", type=int, default=None,
                   dest="buffer_cache_pages",
                   help="server buffer-cache capacity in pages")
    p.add_argument("--out", metavar="FILE",
                   help="write the merged report (and farm stats) as JSON")
    add_farm_args(p)

    p = add("conform", _cmd_conform,
            "lockstep conformance engine against the Table 2 model")
    p.add_argument("--sequences", type=int, default=200,
                   help="explorer sequences in the sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-pages", type=int, default=3,
                   help="cache pages in the explorer's machine")
    p.add_argument("--policy", default="F", type=_policy_name,
                   help="configuration for the workload shadowing")
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload scale for the shadowing runs")
    p.add_argument("--mutant", choices=["skip-dma-read-flush",
                                        "drop-stale-on-dma-write",
                                        "unconditional-will-overwrite"],
                   help="install a seeded bug and demonstrate detection")
    add_farm_args(p)

    p = add("sweep", _cmd_sweep,
            "cache-size sweep across policies, farmed and cached")
    p.add_argument("--workload", default="kernel-build",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--policies", default="A,F", type=_policy_names,
                   help="comma-separated policy names (any from "
                        "`repro policies`)")
    p.add_argument("--sizes", default="32,64,128,256",
                   help="comma-separated data-cache sizes in KiB")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--geometry", metavar="SPEC", default=None,
                   help="apply a cache-hierarchy geometry to every sweep "
                        "point (same grammar as 'run --geometry')")
    p.add_argument("--out", metavar="FILE",
                   help="write the sweep (and farm stats) as JSON")
    add_farm_args(p)

    p = add("farm", _cmd_farm,
            "inspect the farm's result cache or run a spec batch")
    p.add_argument("action", choices=["stats", "gc", "clear", "run"],
                   help="stats: inventory the cache; gc: drop entries "
                        "from other code versions; clear: drop "
                        "everything; run: execute a spec batch")
    p.add_argument("--specs", metavar="FILE",
                   help="JSON-lines JobSpec batch for 'run' (one spec "
                        "dict per line)")
    p.add_argument("--out", metavar="FILE",
                   help="write 'run' outcomes as JSON lines")
    add_farm_args(p)

    trace = sub.add_parser(
        "trace", help="record an event trace, or compile/replay an "
                      "op-stream trace")
    modes = trace.add_subparsers(dest="mode", required=True)

    def add_mode(name, fn, help_text):
        p = modes.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add_mode("events", _cmd_trace_events,
                 "record a workload's consistency event trace")
    p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    p.add_argument("--policy", default="F", type=_policy_name)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--out", metavar="FILE",
                   help="write the events as JSON lines")
    p.add_argument("--diff", metavar="GOLDEN",
                   help="diff against a golden .jsonl trace; exit 1 and "
                        "pinpoint the first diverging event on mismatch")

    p = add_mode("compile", _cmd_trace_compile,
                 "lower a run to a replayable op-stream artifact")
    p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    p.add_argument("--policy", default="F", type=_policy_name)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--out", metavar="FILE", required=True,
                   help="the trace artifact to write")
    p.add_argument("--inject", metavar="PLAN",
                   help="arm the fault injector; its effects are baked "
                        "into the recorded stream")
    p.add_argument("--seed", type=int, default=0,
                   help="injection plan seed")
    p.add_argument("--conform", action="store_true",
                   help="shadow the recorded run with the lockstep "
                        "conformance monitor")
    p.add_argument("--trace-events", action="store_true",
                   dest="record_events",
                   help="record the event stream; replay must then "
                        "reproduce its JSONL hash bit for bit")

    p = add_mode("replay", _cmd_trace_replay,
                 "re-execute an artifact and verify bit-identical "
                 "counters, clock and events")
    p.add_argument("file", metavar="FILE", help="the trace artifact")
    p.add_argument("--events-out", metavar="FILE",
                   help="write the replayed event JSONL")

    p = add("metrics", _cmd_metrics,
            "run a workload and export the complete counter state")
    p.add_argument("target", nargs="?", default="micro",
                   choices=list(WORKLOAD_NAMES) + ["micro"],
                   help="workload to measure, or 'micro' for the "
                        "alignment microbenchmark (default)")
    p.add_argument("--format", default="json", choices=["json", "prom"],
                   help="export format: JSON (default) or Prometheus text")
    p.add_argument("--policy", default="F", type=_policy_name)
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload scale (ignored for 'micro')")
    p.add_argument("--iterations", type=int, default=2_000,
                   help="microbenchmark iterations (for 'micro')")

    p = add("profile", _cmd_profile,
            "cycle-attribution profile of one workload")
    p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    p.add_argument("--policy", default="F", type=_policy_name)
    p.add_argument("--scale", type=float, default=0.25)

    p = add("all", _cmd_all, "everything")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Input the simulator rejects with a typed error
    (:class:`ConfigurationError`, including :class:`InputFileError` for an
    input file that cannot be opened, or :class:`TraceFormatError`) prints
    one line on stderr and exits with status 2, as an argparse usage error
    does; any other error (a stale read, a kernel fault) is a simulator
    failure and propagates with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ConfigurationError, TraceFormatError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
