"""Farm wiring for the repository's expensive consumers.

Each consumer builds a spec batch, runs it through an
:class:`~repro.farm.executor.Executor` with :func:`job_payloads`, and
reassembles its result objects from the payloads.  The cache-size sweep
(:func:`repro.analysis.sweep.run_sweep`) and the chaos suite
(:func:`repro.faults.run_chaos_suite`) do so in their own modules; the
helpers here cover the serve workload, the conformance explorer and the
exhaustive checker.  A job that raised in-process re-raises its own
exception; any other failed job surfaces as a raised
:class:`FarmJobError` carrying the structured
:class:`~repro.farm.executor.JobFailure`.  The farm never silently drops
a shard.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.farm.executor import Executor, JobOutcome
from repro.farm.jobspec import JobSpec


class FarmJobError(ReproError):
    """A farmed job failed outside this process (it raised in a worker,
    hung, or killed its worker); carries the failure, and the message
    of a raising job ends with its traceback."""

    def __init__(self, outcome: JobOutcome):
        failure = outcome.failure
        message = f"farm job {outcome.spec.label()} failed: {failure}"
        if failure.traceback:
            message += "\n" + failure.traceback.rstrip("\n")
        super().__init__(message)
        self.outcome = outcome


def job_payloads(executor: Executor, specs: list[JobSpec]) -> list[dict]:
    """Run specs; return payloads in spec order or raise on the first
    failure.  An exception a job raised in this process is re-raised
    unchanged, with its own type and traceback."""
    outcomes = executor.run(specs)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        if not outcome.ok:
            raise FarmJobError(outcome)
    return [outcome.payload for outcome in outcomes]


# ---- serve macro-workload --------------------------------------------------


def serve_cohort_specs(cohorts: int, users_per_cohort: int,
                       policy: str | None = None,
                       conform: bool = False,
                       **sizing) -> list[JobSpec]:
    """The spec batch for a served population: one job per cohort.
    Cohort ``i`` is a pure function of ``(i, users_per_cohort, ...)``,
    so the same arguments always produce the same batch and therefore
    the same merged report, at any pool width."""
    return [JobSpec.serve(cohort=cohort, users=users_per_cohort,
                          policy=policy, conform=conform, **sizing)
            for cohort in range(cohorts)]


def farm_serve(cohorts: int, users_per_cohort: int, executor: Executor,
               policy: str | None = None, conform: bool = False,
               **sizing):
    """Serve a population across the farm; returns the merged
    :class:`~repro.workloads.serve.ServeReport` (counters summed, arc
    coverage merged, checksum folded in cohort order) — bit-identical
    at any ``jobs`` width because each cohort boots its own kernel."""
    from repro.workloads.serve import ServeCohortResult, merge_cohorts

    specs = serve_cohort_specs(cohorts, users_per_cohort, policy=policy,
                               conform=conform, **sizing)
    results = [ServeCohortResult.from_dict(payload["result"])
               for payload in job_payloads(executor, specs)]
    return merge_cohorts(results)


# ---- conformance explorer --------------------------------------------------


def explore_shard_specs(seed: int, sequences: int, cache_pages: int,
                        shards: int) -> list[JobSpec]:
    """Split one explorer sweep into ``shards`` independently seeded
    explorers whose sequence counts sum to ``sequences``.  Shard ``i``
    uses seed ``seed + i`` — a deterministic function of the arguments,
    so the same (seed, sequences, shards) triple always produces the
    same spec batch and therefore the same merged report."""
    shards = max(1, min(shards, sequences or 1))
    base, extra = divmod(sequences, shards)
    return [JobSpec.explore(seed=seed + i, sequences=base + (1 if i < extra
                                                             else 0),
                            cache_pages=cache_pages)
            for i in range(shards) if base + (1 if i < extra else 0)]


def farm_explore(seed: int, sequences: int, cache_pages: int,
                 executor: Executor, shards: int | None = None):
    """A sharded explorer sweep; returns the merged ExplorationReport
    (coverage merged, counterexamples concatenated)."""
    from repro.conformance.explorer import (ExplorationReport,
                                            merge_exploration_reports)

    specs = explore_shard_specs(seed, sequences, cache_pages,
                                shards or executor.jobs)
    reports = [ExplorationReport.from_dict(payload["report"])
               for payload in job_payloads(executor, specs)]
    return merge_exploration_reports(reports)


# ---- exhaustive checker ----------------------------------------------------


def farm_exhaustive(num_cache_pages: int, depth: int, executor: Executor,
                    shard_depth: int = 1):
    """The bounded exhaustive check, sharded by event-index prefix;
    returns the merged CheckReport covering the full sequence space."""
    from repro.core.exhaustive import (CheckReport, merge_reports,
                                       shard_prefixes)

    specs = [JobSpec.exhaustive(num_cache_pages=num_cache_pages,
                                depth=depth, prefix=prefix)
             for prefix in shard_prefixes(num_cache_pages, shard_depth)]
    reports = [CheckReport.from_dict(payload["report"])
               for payload in job_payloads(executor, specs)]
    return merge_reports(reports)
