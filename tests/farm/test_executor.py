"""The executor: failure semantics a naive pool gets wrong.

A raising job fails on its first attempt, since a job is a pure function
of its spec; hanging and dying workers are retried up to the bound; every
failure is reported structurally in the right outcome slot; a
crash-looping pool degrades to serial execution instead of spinning; and
every step of the run narrates itself on the event bus.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.farm import (Executor, FarmJobError, JobSpec, ResultCache,
                        job_payloads)

OK = [JobSpec.selftest(mode="ok", value=i) for i in range(6)]


class TestHappyPath:
    def test_serial_runs_in_order(self):
        outcomes = Executor(jobs=1).run(OK)
        assert [o.payload["value"] for o in outcomes] == list(range(6))
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_pool_preserves_spec_order(self):
        outcomes = Executor(jobs=3, timeout=30.0).run(OK)
        assert [o.payload["value"] for o in outcomes] == list(range(6))

    def test_pool_jobs_run_in_worker_processes(self):
        outcomes = Executor(jobs=2, timeout=30.0).run(OK[:4])
        pids = {o.payload["pid"] for o in outcomes}
        assert os.getpid() not in pids

    def test_serial_runs_in_this_process(self):
        (outcome,) = Executor(jobs=1).run(OK[:1])
        assert outcome.payload["pid"] == os.getpid()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            Executor(jobs=0)
        with pytest.raises(ConfigurationError):
            Executor(jobs=1, retries=-1)


class TestFailureSemantics:
    def test_raising_job_fails_on_its_first_attempt(self):
        executor = Executor(jobs=1, retries=2)
        (outcome,) = executor.run(
            [JobSpec.selftest(mode="raise", value="boom")])
        assert not outcome.ok
        assert outcome.failure.kind == "exception"
        assert outcome.failure.attempts == 1
        assert executor.stats.retries == 0
        assert "RuntimeError" in outcome.failure.message
        # In-process, the outcome keeps the exception and its traceback.
        assert isinstance(outcome.error, RuntimeError)
        assert "selftest raise (boom)" in str(outcome.error)
        assert "_run_selftest_job" in outcome.failure.traceback

    def test_pool_raising_job_fails_structurally(self):
        executor = Executor(jobs=2, retries=1, timeout=30.0)
        bad, good = executor.run([JobSpec.selftest(mode="raise"),
                                  JobSpec.selftest(mode="ok", value=5)])
        assert not bad.ok and bad.failure.attempts == 1
        assert bad.error is None          # the exception stayed in the worker
        assert "_run_selftest_job" in bad.failure.traceback
        assert good.ok and good.payload["value"] == 5
        assert executor.stats.retries == 0

    def test_worker_failure_message_ends_with_its_traceback(self):
        with pytest.raises(FarmJobError) as caught:
            job_payloads(Executor(jobs=2, timeout=30.0),
                         [JobSpec.selftest(mode="raise", value="w")])
        message = str(caught.value)
        assert "exception after 1 attempts" in message
        assert message.splitlines()[-1] == \
            "RuntimeError: selftest raise (w)"

    def test_hanging_job_times_out(self):
        executor = Executor(jobs=2, timeout=0.3, retries=0)
        slow, fast = executor.run(
            [JobSpec.selftest(mode="hang", seconds=60.0),
             JobSpec.selftest(mode="ok", value=1)])
        assert not slow.ok and slow.failure.kind == "timeout"
        assert fast.ok
        assert executor.stats.worker_deaths == 1

    def test_dying_worker_is_reported_and_replaced(self):
        executor = Executor(jobs=2, retries=0, timeout=30.0)
        dead, live = executor.run([JobSpec.selftest(mode="die"),
                                   JobSpec.selftest(mode="ok", value=2)])
        assert not dead.ok and dead.failure.kind == "worker-death"
        assert live.ok and live.payload["value"] == 2

    def test_crash_loop_degrades_to_serial(self):
        executor = Executor(jobs=2, retries=0, timeout=30.0,
                            degrade_after=0)
        specs = [JobSpec.selftest(mode="die")] + OK[:3]
        outcomes = executor.run(specs)
        assert executor.stats.degraded
        assert not outcomes[0].ok
        # The survivors all completed — nothing was dropped when the
        # pool was abandoned.  (Whether a given survivor ran in a
        # worker or in the parent depends on how fast the workers were;
        # the contract is completeness, not placement.)
        values = [o.payload["value"] for o in outcomes[1:]]
        assert values == [0, 1, 2]


class TestWallTimeAccounting:
    def test_failed_job_records_real_wall_time(self):
        # Regression: _fail never threaded elapsed time, so every
        # failure reported wall_seconds=0.0.
        (outcome,) = Executor(jobs=1, retries=0).run(
            [JobSpec.selftest(mode="raise")])
        assert not outcome.ok
        assert outcome.wall_seconds > 0.0

    def test_timed_out_job_records_the_time_it_burned(self):
        executor = Executor(jobs=2, timeout=0.3, retries=0)
        (outcome,) = executor.run([JobSpec.selftest(mode="hang",
                                                    seconds=60.0)])
        assert not outcome.ok and outcome.failure.kind == "timeout"
        assert outcome.wall_seconds >= 0.3

    def test_pool_failure_records_worker_side_wall_time(self):
        executor = Executor(jobs=2, retries=0, timeout=30.0)
        (outcome,) = executor.run([JobSpec.selftest(mode="raise")])
        assert not outcome.ok
        assert outcome.wall_seconds > 0.0


class TestDegradedAttemptAccounting:
    def test_killed_in_flight_attempt_is_counted(self):
        # Regression: degradation used to requeue in-flight jobs with
        # their old attempt number, so the killed pool attempt never
        # showed in JobOutcome.attempts and the serial farm-start event
        # repeated the same attempt number.
        executor = Executor(jobs=2, retries=0, timeout=30.0,
                            degrade_after=0)
        executor.bus.enable()
        events = []
        executor.bus.subscribe(lambda e: events.append(e))
        outcomes = executor.run([JobSpec.selftest(mode="die"),
                                 JobSpec.selftest(mode="spin",
                                                  seconds=0.8, value=5)])
        assert executor.stats.degraded
        assert not outcomes[0].ok
        survivor = outcomes[1]
        assert survivor.ok and survivor.payload["value"] == 5
        # The pool attempt that was killed at degradation counts.
        assert survivor.attempts == 2
        # Narrated as a degraded retry, and the serial re-execution
        # starts with the *incremented* attempt number.
        retries = [e for e in events if e.kind == "farm-retry"
                   and e.detail["job"] == 1]
        assert retries and retries[-1].detail["reason"] == "degraded"
        starts = [e.detail["attempt"] for e in events
                  if e.kind == "farm-start" and e.detail["job"] == 1]
        assert starts == [1, 2]


class TestEventsAndCache:
    def test_the_bus_narrates_the_run(self, tmp_path):
        executor = Executor(jobs=1, retries=1,
                            cache=ResultCache(tmp_path))
        executor.bus.enable()
        kinds = []
        executor.bus.subscribe(lambda event: kinds.append(event.kind))
        specs = [JobSpec.selftest(mode="ok", value=1),
                 JobSpec.selftest(mode="raise")]
        executor.run(specs)
        for expected in ("farm-queued", "farm-start", "farm-done",
                         "farm-failure", "farm-complete"):
            assert expected in kinds, expected
        assert "farm-retry" not in kinds      # an exception is final
        executor.run([specs[0]])
        assert "farm-cache-hit" in kinds

    def test_cached_outcomes_cost_no_attempts(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.selftest(mode="ok", value=9)
        first_exec = Executor(jobs=1, cache=cache)
        (first,) = first_exec.run([spec])
        (again,) = Executor(jobs=1, cache=cache).run([spec])
        assert not first.cache_hit
        assert again.cache_hit and again.attempts == 0
        assert again.payload == first.payload
