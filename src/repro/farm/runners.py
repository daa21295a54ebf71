"""Job runners: the pure function each :class:`JobSpec` kind names.

A runner takes a spec and returns a JSON-safe payload dict — the same
dict whether it runs in the caller's process (``Executor(jobs=1)``) or
in a pool worker, which is what makes serial and sharded execution
bit-identical and the payload cacheable.  Runners are registered in a
module-level table so worker processes resolve them by kind after a
plain import, with no closures crossing the process boundary.

Kinds:

``workload``
    One measured workload execution (the primitive behind the tables and
    sweeps): workload name, policy name, scale, optional machine
    overrides (``dcache_kib``, ``phys_pages``, ``buffer_cache_pages``,
    ``geometry`` — an :func:`~repro.hw.params.apply_geometry` spec such
    as ``"2way+victim8+l2"``), optional fault plan (``inject`` +
    ``seed``), optional lockstep shadowing (``conform``), all booted by
    :func:`~repro.analysis.experiments.boot`.  Payload: the
    :class:`RunMetrics` dict, plus injection and conformance summaries
    when armed; an injected run that fail-stops records the detection as
    a ``failstop`` payload, and a diverging shadow records
    ``conform.ok: false`` (each a deterministic result of the spec)
    rather than failing the job.
``replay``
    One trace replay with equivalence verification (trace path + content
    digest); payload is the replay verdict, clock, op count and event
    hash.  Replays
    are pure functions of the artifact bytes, so the farm's cache makes
    re-verifying an unchanged trace free.
``chaos``
    One detected-or-harmless chaos run (seed, preset, steps, optional
    ``n_cpus`` for a coherent cluster with per-CPU lockstep shadows);
    payload is the verified :class:`ChaosReport` dict.
``smp``
    One point of the Section 3.3 SMP scaling curve: the multi-CPU ring
    (or Unix-server) workload at ``n_cpus`` with ``aligned`` or
    unaligned sharing; payload is the result dict (cycles per record,
    consistency faults, coherence traffic).
``serve``
    One user cohort of the ``serve`` macro-workload: ``users`` simulated
    users hammering the Unix server's buffer-cache and IPC paths on a
    fresh kernel (optional policy/sizing overrides, optional ``conform``
    lockstep shadowing); payload is the :class:`ServeCohortResult` dict
    with the per-cohort read checksum and counter snapshot.
``explore``
    One conformance-explorer shard (seed, sequences, cache_pages);
    payload is the :class:`ExplorationReport` dict, coverage included.
``exhaustive``
    One prefix shard of the bounded exhaustive checker (optionally
    against a named derived-table variant, ``model``); payload is the
    :class:`CheckReport` dict.
``selftest``
    A test-only runner exercising the executor's failure machinery:
    echo a value, raise, hang, busy-spin, or exit the worker process.
"""

from __future__ import annotations

import os
import time

from repro.errors import ConfigurationError
from repro.farm.jobspec import JobSpec

RUNNERS: dict = {}


def runner(kind: str):
    def register(fn):
        RUNNERS[kind] = fn
        return fn
    return register


def run_spec(spec: JobSpec) -> dict:
    """Execute one spec in this process; returns its payload dict."""
    try:
        fn = RUNNERS[spec.kind]
    except KeyError:
        raise ConfigurationError(f"unknown job kind {spec.kind!r}")
    return fn(spec)


# ---- simulation runners ----------------------------------------------------


@runner("workload")
def _run_workload_job(spec: JobSpec) -> dict:
    from repro.analysis.experiments import (EVALUATION_BUFFER_CACHE_PAGES,
                                            FailStop, boot,
                                            evaluation_machine, make_workload)
    from repro.analysis.sweep import machine_with_dcache
    from repro.policy import get_policy

    policy = get_policy(spec["policy"])
    dcache_kib = spec.get("dcache_kib")
    phys_pages = spec.get("phys_pages")
    if dcache_kib is not None:
        config = machine_with_dcache(dcache_kib, phys_pages or 320)
    elif phys_pages is not None:
        from repro.hw.params import MachineConfig
        config = MachineConfig(phys_pages=phys_pages)
    else:
        config = evaluation_machine()
    geometry = spec.get("geometry")
    if geometry is not None:
        from repro.hw.params import apply_geometry
        config = apply_geometry(config, geometry)
    workload = make_workload(spec["workload"], spec.get("scale", 1.0))
    booted = boot(policy, config,
                  buffer_cache_pages=spec.get("buffer_cache_pages",
                                              EVALUATION_BUFFER_CACHE_PAGES),
                  inject=spec.get("inject"), seed=spec.get("seed", 0),
                  conform=bool(spec.get("conform", False)))
    outcome = booted.run(workload)
    kernel, injector, monitor = booted.kernel, booted.injector, booted.monitor
    if isinstance(outcome, FailStop):
        # Under injection a fail-stop is *detection* — a deterministic
        # result of the spec, not an infrastructure failure to retry.
        return {"failstop": {"type": type(outcome.error).__name__,
                             "message": str(outcome.error)},
                "injections": len(outcome.injections)}
    payload: dict = {"metrics": outcome.to_dict()}
    if kernel.machine.hierarchy is not None:
        counters = kernel.machine.counters
        payload["hierarchy"] = {
            "victim_hits": counters.victim_hits,
            "victim_captures": counters.victim_captures,
            "l2_hits": counters.l2_hits,
            "l2_fills": counters.l2_fills,
        }
    if injector is not None:
        payload["injections"] = len(injector.audit)
    if monitor is not None:
        # A divergence is a result of the spec too: ``ok`` is false.
        payload["conform"] = {
            "ok": monitor.ok,
            "events": monitor.events_seen,
            "frames": monitor.summary().frames,
            "divergences": [str(d) for d in monitor.divergences],
            "coverage": monitor.coverage.to_dict(),
        }
    return payload


@runner("replay")
def _run_replay_job(spec: JobSpec) -> dict:
    from repro.trace import load_trace, replay_trace

    trace = load_trace(spec["trace"])
    result = replay_trace(trace)
    return {
        "equivalent": result.equivalent,
        "mismatches": list(result.mismatches),
        "clock": result.clock,
        "n_ops": result.n_ops,
        "n_events": result.n_events,
        "events_sha256": result.events_sha256,
        "workload": trace.meta.get("workload"),
        "policy": trace.meta.get("policy"),
    }


@runner("chaos")
def _run_chaos_job(spec: JobSpec) -> dict:
    from repro.faults.harness import run_chaos

    kwargs = {}
    if spec.get("policy") is not None:
        kwargs["policy"] = spec["policy"]
    report = run_chaos(spec["seed"], preset=spec.get("preset", "mixed"),
                       steps=spec.get("steps", 200),
                       n_cpus=spec.get("n_cpus", 1), **kwargs)
    return {"report": report.to_dict()}


@runner("smp")
def _run_smp_job(spec: JobSpec) -> dict:
    from repro.faults.harness import chaos_machine
    from repro.kernel.kernel import Kernel
    from repro.workloads.smp import run_smp_ring, run_smp_unix_server

    kernel = Kernel(config=chaos_machine(n_cpus=spec["n_cpus"],
                                         phys_pages=spec.get("phys_pages")
                                         or 192),
                    buffer_cache_pages=24)
    workload = spec.get("workload", "ring")
    if workload == "ring":
        result = run_smp_ring(kernel,
                              records_per_pair=spec.get("records", 120),
                              data_pages=spec.get("data_pages", 2),
                              aligned=bool(spec.get("aligned", True)))
    elif workload == "server":
        result = run_smp_unix_server(kernel)
    else:
        raise ConfigurationError(f"unknown smp workload {workload!r}")
    return {"result": result.to_dict()}


@runner("serve")
def _run_serve_job(spec: JobSpec) -> dict:
    from repro.workloads.serve import run_serve_cohort

    kwargs = {}
    for key in ("policy", "hot_files", "file_pages", "frontends",
                "buffer_cache_pages"):
        value = spec.get(key)
        if value is not None:
            kwargs[key] = value
    result = run_serve_cohort(spec["cohort"], spec["users"],
                              conform=bool(spec.get("conform", False)),
                              **kwargs)
    return {"result": result.to_dict()}


@runner("explore")
def _run_explore_job(spec: JobSpec) -> dict:
    from repro.conformance.explorer import Explorer

    report = Explorer(num_cache_pages=spec.get("cache_pages", 3),
                      seed=spec["seed"]).explore(spec["sequences"])
    return {"report": report.to_dict()}


@runner("exhaustive")
def _run_exhaustive_job(spec: JobSpec) -> dict:
    from repro.core.exhaustive import check_all_sequences
    from repro.core.variants import model_factory_by_name

    report = check_all_sequences(
        num_cache_pages=spec["num_cache_pages"], depth=spec["depth"],
        prefix=tuple(spec.get("prefix", ())),
        model_factory=model_factory_by_name(
            spec.get("model", "canonical")))
    return {"report": report.to_dict()}


# ---- the executor's own test surface ---------------------------------------


@runner("selftest")
def _run_selftest_job(spec: JobSpec) -> dict:
    mode = spec.get("mode", "ok")
    if mode == "ok":
        return {"value": spec.get("value"), "pid": os.getpid()}
    if mode == "raise":
        raise RuntimeError(f"selftest raise ({spec.get('value')})")
    if mode == "hang":
        time.sleep(float(spec.get("seconds", 3600.0)))
        return {"value": "woke"}
    if mode == "spin":
        deadline = time.perf_counter() + float(spec.get("seconds", 0.1))
        n = 0
        while time.perf_counter() < deadline:
            n += 1
        return {"value": spec.get("value"), "spins": bool(n)}
    if mode == "die":
        # Only a pool worker may be killed; after degradation the job
        # runs in the parent, where the crash becomes a plain exception
        # (the scenario the degradation path exists for).
        import multiprocessing
        if multiprocessing.parent_process() is not None:
            os._exit(int(spec.get("code", 13)))
        raise RuntimeError("selftest die: not in a worker process")
    raise ConfigurationError(f"unknown selftest mode {mode!r}")
