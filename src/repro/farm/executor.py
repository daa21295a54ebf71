"""The executor: one spec list in, one outcome list out — any width.

``Executor(jobs=1)`` runs every spec in the calling process, over the
same runners a pool worker calls.  ``jobs=N`` shards the specs across
``N`` worker processes; because every job is a pure function of its
spec (see :mod:`repro.farm.jobspec`), the two modes produce identical
payloads, and the equivalence property tests assert exactly that.

Two mechanisms keep the pool from losing to serial execution on real
batches (the 0.88x regime the farm shipped in):

* **batched dispatch** — workers pull *chunks* of specs in one queue
  message and stream per-job results back, so the per-message pickle and
  wakeup cost amortizes across the chunk.  The chunk size tunes itself
  from the observed per-job wall time: long jobs dispatch one at a time
  (keeping timeouts and retries fine-grained), sub-millisecond jobs ship
  dozens per message (see :meth:`Executor._chunk_size`).
* **fork-shared snapshots** — on the ``fork`` start method the parent
  pre-imports every runner dependency and pre-builds the immutable
  expensive state (derived Table 2 policy tables, machine templates, the
  code fingerprint) *before* spawning workers, so the children inherit
  it copy-on-write instead of rebuilding it per process (see
  :mod:`repro.farm.snapshot`).  Spawn-only platforms skip the prewarm
  and build lazily in each worker, exactly as before.

Failure semantics (the part a naive ``multiprocessing.Pool`` gets
wrong):

* **per-job timeout** — a worker that exceeds ``timeout`` seconds on one
  job is terminated (hung simulations cannot be cancelled from inside);
  under batched dispatch the deadline re-arms as each result of the
  chunk streams back, so the bound stays per-job, not per-chunk;
* **a job's exception is final** — every job is a pure function of its
  spec, so a job that raised would raise again: it fails on its first
  attempt, in-process or in a worker;
* **bounded retries** — a job whose worker hung or died is retried up
  to ``retries`` more times on a fresh worker before being reported.
  Only jobs that actually *started* consume an attempt: the unstarted
  tail of a killed worker's chunk requeues with its attempt count
  unchanged;
* **structured failure** — a failed job yields a :class:`JobFailure`
  (kind, message, attempt count, the raising job's traceback) in its
  outcome slot, with the wall time the losing attempt burned; an
  in-process failure also keeps the exception object itself
  (:attr:`JobOutcome.error`).  The run never hangs and never silently
  drops a job;
* **graceful degradation** — when workers keep dying (more than
  ``degrade_after`` replacements), the pool is abandoned and the
  remaining jobs run serially in the parent, which cannot crash-loop.
  The killed in-flight attempts are counted: each running job requeues
  with ``attempt + 1`` (narrated as a ``farm-retry`` with reason
  ``degraded``), so ``JobOutcome.attempts`` reports every execution the
  job actually cost.

Progress — jobs queued/started/done/retried/failed, cache hits,
degradation — publishes on an :class:`repro.obs.EventBus`, so the
``run --trace-events`` style of introspection extends to fleet runs
(``sweep``/``farm``/``chaos`` accept ``--trace-events FILE``).

Results are returned in spec order regardless of completion order, and
completed payloads land in the :class:`~repro.farm.cache.ResultCache`
(when one is attached) keyed by content hash, so reruns are near-free.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.farm.cache import ResultCache
from repro.farm.fingerprint import code_fingerprint
from repro.farm.jobspec import JobSpec
from repro.farm.runners import run_spec
from repro.farm.snapshot import prewarm_fork_snapshot
from repro.hw.stats import Clock
from repro.obs.events import EventBus

#: generous per-job wall-clock bound; individual consumers override.
DEFAULT_TIMEOUT = 300.0

#: batched dispatch aims each chunk at this much worker wall time: long
#: enough to amortize the queue round-trip, short enough that retries,
#: timeouts and load balance stay fine-grained.
TARGET_CHUNK_SECONDS = 0.25

#: hard ceiling on specs per dispatch message, however fast the jobs.
MAX_CHUNK = 32


@dataclass(frozen=True)
class JobFailure:
    """Why one job failed."""

    kind: str            # "exception" | "timeout" | "worker-death"
    message: str
    attempts: int
    traceback: str = ""  # the raising job's, for kind "exception"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind} after {self.attempts} attempts: {self.message}"


@dataclass
class JobOutcome:
    """One spec's result: a payload or a structured failure."""

    spec: JobSpec
    payload: dict | None = None
    failure: JobFailure | None = None
    cache_hit: bool = False
    attempts: int = 1
    wall_seconds: float = 0.0
    #: the exception an in-process job raised (None from a worker).
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class FarmStats:
    """What one :meth:`Executor.run` did, for reports and events."""

    jobs: int = 0
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    retries: int = 0
    worker_deaths: int = 0
    degraded: bool = False
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"jobs": self.jobs, "done": self.done, "failed": self.failed,
                "cache_hits": self.cache_hits, "retries": self.retries,
                "worker_deaths": self.worker_deaths,
                "degraded": self.degraded,
                "wall_seconds": round(self.wall_seconds, 3)}


def _worker_main(wid: int, task_q, result_q) -> None:
    """Worker loop: run spec chunks until the ``None`` sentinel arrives.

    Each message is a list of ``(index, spec_dict)`` pairs; results
    stream back one per job as ``(wid, index, status, data, elapsed)``,
    with ``elapsed`` measured around the job in the worker — the honest
    per-job wall time, free of queue wait.  Every exception — including
    ``KeyboardInterrupt`` — is shipped back as a structured error so the
    parent, not the worker, owns policy.
    """
    while True:
        message = task_q.get()
        if message is None:
            return
        for index, spec_dict in message:
            begun = time.perf_counter()
            try:
                payload = run_spec(JobSpec.from_dict(spec_dict))
                result_q.put((wid, index, "ok", payload,
                              time.perf_counter() - begun))
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                result_q.put((wid, index, "error",
                              {"type": type(exc).__name__,
                               "message": str(exc),
                               "traceback": traceback.format_exc()},
                              time.perf_counter() - begun))


class _Worker:
    """One pool member: a process plus its private task queue."""

    def __init__(self, ctx, wid: int, result_q):
        self.wid = wid
        self.task_q = ctx.SimpleQueue()
        self.proc = ctx.Process(target=_worker_main,
                                args=(wid, self.task_q, result_q),
                                daemon=True)
        self.proc.start()

    def stop(self, timeout: float = 1.0) -> None:
        try:
            if self.proc.is_alive():
                self.task_q.put(None)
                self.proc.join(timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout)
        finally:
            self.proc.close()

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
        self.proc.close()


@dataclass
class _Flight:
    """One worker's outstanding chunk.

    ``batch[0]`` is the job the worker is running *now* (results stream
    back in dispatch order over the worker's FIFO queue); the rest are
    queued behind it and have not started.  ``deadline``/``begun``
    re-arm every time a result arrives, so the timeout and the parent's
    fallback wall clock are per-job even though dispatch is per-chunk.
    """

    batch: deque          # of (index, attempt), head is running
    deadline: float       # monotonic instant the running job times out
    begun: float          # perf_counter instant the running job started


class _PoolState:
    """The pool loop's mutable state, one field per moving part.

    Factored out of the loop so the drain/reap ordering contracts — a
    result racing a timeout, a result racing a worker death, the
    stale-result filter — are unit-testable with synthetic workers and a
    hand-loaded result queue (tests/farm/test_races.py) instead of only
    via real process timing.
    """

    def __init__(self, specs, pending, outcomes, result_q):
        self.specs = specs
        self.pending = pending              # deque of (index, attempt)
        self.outcomes = outcomes
        self.result_q = result_q
        self.workers: dict[int, _Worker] = {}
        self.flights: dict[int, _Flight] = {}
        self.idle: list[int] = []
        self.next_wid = 0


class Executor:
    """Runs :class:`JobSpec` batches serially or across a process pool."""

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 timeout: float = DEFAULT_TIMEOUT, retries: int = 2,
                 bus: EventBus | None = None,
                 fingerprint: str | None = None,
                 degrade_after: int | None = None,
                 start_method: str | None = None,
                 max_chunk: int = MAX_CHUNK):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if max_chunk < 1:
            raise ConfigurationError(
                f"max_chunk must be >= 1, got {max_chunk}")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        #: farm events carry no simulated time — the farm runs outside
        #: the machines it schedules — so the bus gets its own zero clock
        #: and events order by ``seq``.
        self.bus = bus if bus is not None else EventBus(Clock())
        self.fingerprint = fingerprint or (code_fingerprint()
                                           if cache is not None else "")
        self.degrade_after = (degrade_after if degrade_after is not None
                              else max(4, 2 * jobs))
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.start_method = start_method
        self.max_chunk = max_chunk
        #: EMA of worker-reported per-job wall seconds; drives the
        #: chunk-size auto-tuner.  None until the first result lands.
        self._job_seconds: float | None = None
        self.stats = FarmStats()

    # ---- entry point -------------------------------------------------------

    def run(self, specs) -> list[JobOutcome]:
        """Execute every spec; outcomes come back in spec order."""
        specs = list(specs)
        self.stats = FarmStats(jobs=len(specs))
        started = time.perf_counter()
        self._publish("farm-queued", jobs=len(specs), workers=self.jobs,
                      cached=self.cache is not None)
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        pending: deque[tuple[int, int]] = deque()   # (index, attempt)
        for index, spec in enumerate(specs):
            hit = self._lookup(spec)
            if hit is not None:
                outcomes[index] = hit
                self.stats.cache_hits += 1
                self._publish("farm-cache-hit", job=index,
                              label=spec.label())
            else:
                pending.append((index, 1))
        if pending:
            if self.jobs == 1:
                self._run_serial(specs, pending, outcomes)
            else:
                self._run_pool(specs, pending, outcomes)
        self.stats.wall_seconds = time.perf_counter() - started
        self.stats.done = sum(1 for o in outcomes if o is not None and o.ok)
        self.stats.failed = len(specs) - self.stats.done
        self._publish("farm-complete", **self.stats.as_dict())
        return outcomes

    # ---- shared pieces -----------------------------------------------------

    def _publish(self, kind: str, **detail) -> None:
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.publish(kind, **detail)

    def _lookup(self, spec: JobSpec) -> JobOutcome | None:
        if self.cache is None:
            return None
        payload = self.cache.get(spec.key(self.fingerprint))
        if payload is None:
            return None
        return JobOutcome(spec, payload=payload, cache_hit=True, attempts=0)

    def _store(self, spec: JobSpec, payload: dict) -> None:
        if self.cache is not None:
            self.cache.put(spec.key(self.fingerprint), spec,
                           self.fingerprint, payload)

    def _complete(self, outcomes, index, spec, payload, attempt,
                  wall) -> None:
        self._store(spec, payload)
        outcomes[index] = JobOutcome(spec, payload=payload, attempts=attempt,
                                     wall_seconds=wall)
        self._publish("farm-done", job=index, label=spec.label(),
                      attempt=attempt, wall=round(wall, 4))

    def _fail(self, outcomes, index, spec, kind, message, attempt,
              wall, trace: str = "", error: Exception | None = None) -> None:
        failure = JobFailure(kind, message, attempt, trace)
        outcomes[index] = JobOutcome(spec, failure=failure, attempts=attempt,
                                     wall_seconds=wall, error=error)
        self._publish("farm-failure", job=index, label=spec.label(),
                      failure=kind, message=message, attempts=attempt,
                      wall=round(wall, 4))

    def _retry(self, pending, index, spec, reason, attempt) -> None:
        self.stats.retries += 1
        self._publish("farm-retry", job=index, label=spec.label(),
                      reason=reason, attempt=attempt)
        pending.appendleft((index, attempt + 1))

    # ---- serial ------------------------------------------------------------

    def _run_serial(self, specs, pending, outcomes) -> None:
        """In-process execution with the farm's structured-failure
        semantics; a job that raises fails at once and keeps its
        exception.  Hangs are not preemptible in-process — only the pool
        path can kill a hung job, which is why per-job timeouts require
        ``jobs > 1``."""
        while pending:
            index, attempt = pending.popleft()
            spec = specs[index]
            self._publish("farm-start", job=index, label=spec.label(),
                          attempt=attempt, worker="serial")
            begun = time.perf_counter()
            try:
                payload = run_spec(spec)
            except Exception as exc:
                self._fail(outcomes, index, spec, "exception",
                           f"{type(exc).__name__}: {exc}", attempt,
                           time.perf_counter() - begun,
                           traceback.format_exc(), exc)
                continue
            self._complete(outcomes, index, spec, payload, attempt,
                           time.perf_counter() - begun)

    # ---- pool --------------------------------------------------------------

    def _chunk_size(self, n_pending: int, n_workers: int) -> int:
        """Specs per dispatch message, tuned from observed job wall time.

        Until a first result lands there is nothing to tune from, so
        chunks stay at 1 (also the right answer for long jobs: dispatch
        stays maximally balanced and a kill loses at most one running
        job).  Once the EMA says jobs are short, the chunk grows toward
        ``TARGET_CHUNK_SECONDS`` of work per message — but never beyond
        an even share of the remaining work, so no worker starves while
        another holds a deep queue."""
        if self._job_seconds is None:
            return 1
        by_time = int(TARGET_CHUNK_SECONDS / max(self._job_seconds, 1e-9))
        fair_share = -(-n_pending // max(n_workers, 1))  # ceil division
        return max(1, min(by_time, fair_share, self.max_chunk))

    def _observe(self, elapsed: float) -> None:
        """Fold one worker-reported job wall time into the chunk EMA."""
        if self._job_seconds is None:
            self._job_seconds = elapsed
        else:
            self._job_seconds = 0.7 * self._job_seconds + 0.3 * elapsed

    def _dispatch(self, state: _PoolState) -> None:
        """Hand every idle worker one auto-sized chunk of pending specs."""
        while state.pending and state.idle:
            wid = state.idle.pop()
            chunk = self._chunk_size(len(state.pending),
                                     len(state.workers))
            batch = deque()
            message = []
            for _ in range(min(chunk, len(state.pending))):
                index, attempt = state.pending.popleft()
                batch.append((index, attempt))
                message.append((index, state.specs[index].to_dict()))
            state.workers[wid].task_q.put(message)
            state.flights[wid] = _Flight(
                batch=batch,
                deadline=time.monotonic() + self.timeout,
                begun=time.perf_counter())
            index, attempt = batch[0]
            self._publish("farm-start", job=index,
                          label=state.specs[index].label(),
                          attempt=attempt, worker=wid,
                          chunk=len(batch))

    def _drain(self, state: _PoolState, block: bool = True) -> bool:
        """Consume every available result; returns True if any arrived.

        Runs *before* worker judgment every iteration, so a result that
        raced a timeout or a worker death still counts: the queue is the
        source of truth for work that finished, liveness and deadlines
        only for work that did not."""
        drained = False
        while True:
            try:
                wid, index, status, data, elapsed = state.result_q.get(
                    timeout=0.05 if block and not drained else 0.0)
            except queue.Empty:
                return drained
            drained = True
            self._handle_result(state, wid, index, status, data, elapsed)

    def _handle_result(self, state: _PoolState, wid, index, status, data,
                       elapsed) -> None:
        flight = state.flights.get(wid)
        if flight is None or not flight.batch or flight.batch[0][0] != index:
            return  # stale result from a replaced worker
        index, attempt = flight.batch.popleft()
        self._observe(elapsed)
        spec = state.specs[index]
        if status == "ok":
            self._complete(state.outcomes, index, spec, data, attempt,
                           elapsed)
        else:
            self._fail(state.outcomes, index, spec, "exception",
                       f"{data['type']}: {data['message']}", attempt,
                       elapsed, data["traceback"])
        if flight.batch:
            # The next job of the chunk starts now: re-arm its per-job
            # deadline and announce it.
            flight.deadline = time.monotonic() + self.timeout
            flight.begun = time.perf_counter()
            head_index, head_attempt = flight.batch[0]
            self._publish("farm-start", job=head_index,
                          label=state.specs[head_index].label(),
                          attempt=head_attempt, worker=wid, chunk=0)
        else:
            state.flights.pop(wid)
            if wid in state.workers:
                state.idle.append(wid)

    def _requeue_unstarted(self, state: _PoolState, batch) -> None:
        """Return a killed worker's not-yet-started chunk tail to the
        front of the queue, order preserved, attempts unchanged — those
        jobs never executed, so they cost nothing."""
        for item in reversed(list(batch)):
            state.pending.appendleft(item)

    def _reap(self, state: _PoolState) -> bool:
        """Kill dead and hung workers; returns True once degraded.

        Only the chunk's *head* job was running when the worker died or
        hung, so only it consumes an attempt; the unstarted tail
        requeues untouched."""
        now = time.monotonic()
        for wid in list(state.flights):
            flight = state.flights[wid]
            worker = state.workers[wid]
            died = not worker.proc.is_alive()
            hung = now > flight.deadline
            if not died and not hung:
                continue
            reason = "worker-death" if died else "timeout"
            state.flights.pop(wid)
            state.workers.pop(wid)
            worker.kill()
            self.stats.worker_deaths += 1
            index, attempt = flight.batch.popleft()
            wall = time.perf_counter() - flight.begun
            spec = state.specs[index]
            self._requeue_unstarted(state, flight.batch)
            if attempt <= self.retries:
                self._retry(state.pending, index, spec, reason, attempt)
            else:
                message = ("worker exited while running the job"
                           if died else
                           f"job exceeded {self.timeout:g}s")
                self._fail(state.outcomes, index, spec, reason, message,
                           attempt, wall)
            if self.stats.worker_deaths > self.degrade_after:
                self._degrade(state)
                return True
            state.workers[state.next_wid] = _Worker(
                self._ctx, state.next_wid, state.result_q)
            state.idle.append(state.next_wid)
            state.next_wid += 1
        return False

    def _degrade(self, state: _PoolState) -> None:
        """The pool is poison: stop replacing workers and finish the
        remaining jobs where nothing can crash-loop — the parent
        process.  Every in-flight *running* job was just killed, so it
        requeues as a counted retry (``attempt + 1``); the unstarted
        chunk tails requeue unchanged."""
        self.stats.degraded = True
        self._publish("farm-degraded",
                      worker_deaths=self.stats.worker_deaths,
                      remaining=(len(state.pending)
                                 + sum(len(f.batch)
                                       for f in state.flights.values())))
        for wid, flight in list(state.flights.items()):
            index, attempt = flight.batch.popleft()
            self._requeue_unstarted(state, flight.batch)
            self._retry(state.pending, index, state.specs[index],
                        "degraded", attempt)
            state.workers.pop(wid).kill()
        state.flights.clear()

    def _run_pool(self, specs, pending, outcomes) -> None:
        self._ctx = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            # Build the expensive immutable state once, pre-fork, so
            # every worker inherits it copy-on-write.
            prewarm_fork_snapshot()
        result_q = self._ctx.Queue()
        state = _PoolState(specs, pending, outcomes, result_q)
        try:
            for _ in range(min(self.jobs, len(pending))):
                state.workers[state.next_wid] = _Worker(
                    self._ctx, state.next_wid, result_q)
                state.next_wid += 1
            state.idle = list(state.workers)
            while state.pending or state.flights:
                self._dispatch(state)
                self._drain(state)
                if self._reap(state):
                    self._run_serial(specs, state.pending, outcomes)
                    return
        finally:
            for worker in state.workers.values():
                worker.stop()
            result_q.close()
            result_q.cancel_join_thread()
