"""The simulation farm: sharded deterministic execution + result cache.

Every expensive consumer in this repository — cache-size sweeps, chaos
suites, the conformance explorer, the bounded exhaustive checker, the
benchmark reproductions — is a pure function of a (config, seed) pair,
because the simulator is seeded and runs on a simulated clock.  The farm
exploits that purity twice:

* **sharding** — a :class:`JobSpec` batch runs across a
  ``multiprocessing`` pool (:class:`Executor`) with per-job timeouts,
  bounded retries on worker death, and graceful degradation to serial
  execution; ``jobs=1`` runs the same batch in-process, bit-identical;
* **memoization** — completed payloads land in a content-addressed
  :class:`ResultCache` keyed by hash(spec, code fingerprint), so
  repeated sweeps and CI reruns answer from disk; any source change
  flips the fingerprint and every key with it.

See ``docs/farm.md`` for the job model, cache-key construction, failure
semantics, and the CLI surface (``sweep``, ``farm``, ``--jobs``).
"""

from repro.farm.cache import ResultCache, default_cache_root
from repro.farm.executor import (DEFAULT_TIMEOUT, Executor, FarmStats,
                                 JobFailure, JobOutcome)
from repro.farm.fingerprint import code_fingerprint
from repro.farm.jobspec import JobSpec
from repro.farm.runners import run_spec
from repro.farm.snapshot import (fork_available, prewarm_fork_snapshot,
                                 snapshot_info)
from repro.farm.suites import (FarmJobError, farm_exhaustive, farm_explore,
                               farm_serve, job_payloads, serve_cohort_specs)

__all__ = [
    "DEFAULT_TIMEOUT",
    "Executor",
    "FarmJobError",
    "FarmStats",
    "JobFailure",
    "JobOutcome",
    "JobSpec",
    "ResultCache",
    "code_fingerprint",
    "default_cache_root",
    "farm_exhaustive",
    "farm_explore",
    "farm_serve",
    "fork_available",
    "job_payloads",
    "prewarm_fork_snapshot",
    "run_spec",
    "serve_cohort_specs",
    "snapshot_info",
]
