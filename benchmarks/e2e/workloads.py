"""The four benchmark workloads: closed-loop clients of the simulator.

Each workload is a class with a ``setup(timer, ref)`` phase (timed as
the ``setup_s`` metric) and a ``run(timer, ref)`` phase (the measured
window), and produces a :class:`PassResult`.  One client sends its next
request only when the previous one has returned.  Simulated caches start
cold: every pass boots fresh kernels.  A ``ref`` (:class:`refclock.
RefClock`) is given a chance to mark host speed between requests.

Every result is checked, not just timed: each page a serve client reads
is compared with what that page must hold (the file's on-disk block or
the client's own last write), the paper workloads run with the staleness
oracle armed, and every replay must meet its equivalence contract.  A
request that raises or reads wrong data counts as failed.  The
simulated outcome of a pass is folded into a sha256 ``digest`` over the
measured window's simulated cycles, ``Counters.snapshot()`` and (for
serve) a crc of every page read; equal seeds must give equal digests.

With a ``timer`` (:class:`layers.LayerTimer`, already started), each
workload attaches it to the kernels it boots and opens a ``workload``
span around every request, so the traced pass splits host time by layer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import evaluation_machine, make_workload
from repro.kernel.disk import synthetic_block
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.trace import compile_workload, replay_trace
from repro.trace.format import decode_counters

from layers import LAYERS

#: the serve machine: default hardware, policy F, a 48-page buffer cache.
SERVE_POLICY = "F"
SERVE_BUFFER_CACHE_PAGES = 48
SERVE_FRONTENDS = 4

#: the paper workloads on the machine of the trace benchmark, at a scale
#: small enough that a run holds tens of rounds.
PAPER_PAIRS = tuple((name, policy)
                    for name in ("afs-bench", "latex-paper", "kernel-build")
                    for policy in ("A", "F"))
PAPER_SCALE = 0.5
PAPER_PHYS_PAGES = 1024
PAPER_BUFFER_CACHE_PAGES = 128

#: the layers a workload on the live simulator runs: all but the trace
#: layers.  Every workload names the layers it must run (``layers_run``);
#: the traced pass checks each of them has calls and every other has none.
LIVE_LAYERS = frozenset(LAYERS) - {"trace.compile", "trace.replay"}

#: how many failure messages a pass keeps for its report.
MAX_ERRORS = 5


class Mismatch(Exception):
    """A request returned data that differs from what it must return."""


@dataclass
class PassResult:
    """What one pass of a workload did, measured and checked."""

    op_ns: list = field(default_factory=list)      # host time per request
    op_start_ns: list = field(default_factory=list)  # when each began
    op_cycles: list = field(default_factory=list)  # simulated cycles
    #: (start, end) host ns of set-up done between requests
    setup_spans: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    sim_cycles: int = 0          # simulated cycles of the measured window
    digest: str = ""
    #: Counters.snapshot() summed over the pass's simulated hardware,
    #: plus buffer-cache, disk and replay tallies (the per-layer ratios).
    stats: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.op_ns)


class _Op:
    """Times one request: host ns, simulated cycles, and (traced) a
    ``workload`` span.  Without a clock, the caller adds up ``cycles``."""

    __slots__ = ("ops", "clock", "cycles", "_span", "_c0", "_t0")

    def __init__(self, ops: "_Ops", clock):
        self.ops = ops
        self.clock = clock
        self.cycles = 0

    def __enter__(self) -> "_Op":
        timer = self.ops.timer
        self._span = None
        if timer is not None:
            self._span = timer.span("workload", self.clock,
                                    request=len(self.ops.result.op_ns))
            self._span.__enter__()
        self._c0 = self.clock.cycles if self.clock is not None else 0
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        if self.clock is not None:
            self.cycles = self.clock.cycles - self._c0
        result = self.ops.result
        result.op_start_ns.append(self._t0)
        result.op_ns.append(t1 - self._t0)
        result.op_cycles.append(self.cycles)
        if self._span is not None:
            self._span.cycles = self.cycles
            self._span.__exit__(*exc)


class _Ops:
    """The request log of one pass, and its failure accounting.  With a
    :class:`refclock.RefClock`, host speed is marked between requests."""

    def __init__(self, timer, ref):
        self.timer = timer
        self.ref = ref
        self.result = PassResult()

    def op(self, clock=None) -> _Op:
        if self.ref is not None:
            self.ref.maybe_mark()
        return _Op(self, clock)

    def fail(self, error: Exception) -> None:
        """Count a failed request; the pass goes on with the next client."""
        self.result.failed += 1
        if len(self.result.errors) < MAX_ERRORS:
            self.result.errors.append(f"{type(error).__name__}: {error}")


def digest(entry) -> str:
    """sha256 over a JSON-able simulated outcome."""
    blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sum_into(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _in_span(timer, clock, fn, *args):
    """Run ``fn`` in a ``workload`` span when traced (so simulated cycles
    the benchmark's own code issues are attributed), directly otherwise."""
    if timer is None:
        return fn(*args)
    with timer.span("workload", clock):
        return fn(*args)


def page_values(seed: int, tag: str, user: int, words: int) -> np.ndarray:
    """Seed-derived contents for a page a client writes.  Passed
    explicitly: the simulator's own ``fresh_tokens`` draws from a
    process-global counter, which would tie the data to process history."""
    h = zlib.crc32(f"{seed}/{tag}/{user}".encode())
    return np.uint64((h << 24) | 0xC0DE) + np.arange(words, dtype=np.uint64)


# ---- serve: many users against the Unix server ------------------------------


class _Serve:
    """A fresh kernel with on-disk files and a pool of frontend processes
    that carry every user's requests, as in ``repro serve``."""

    name = ""
    USERS = 0
    layers_run = LIVE_LAYERS

    def __init__(self, seed: int, users: int | None = None):
        self.seed = seed
        self.users = self.USERS if users is None else users

    def _boot(self, timer, n_files: int, file_pages: int, prefix: str):
        kernel = Kernel(policy=SERVE_POLICY,
                        buffer_cache_pages=SERVE_BUFFER_CACHE_PAGES)
        if timer is not None:
            timer.attach_kernel(kernel)
        self.kernel = kernel
        self.clock = kernel.machine.clock
        self.wpp = kernel.machine.memory.words_per_page
        self.names = [f"srv/{prefix}{i}" for i in range(n_files)]
        self.file_pages = file_pages
        self.on_disk = {}
        for i, name in enumerate(self.names):
            meta = kernel.fs.create(name, size_pages=file_pages, on_disk=True)
            for page in range(file_pages):
                self.on_disk[(i, page)] = synthetic_block(meta.file_id, page,
                                                          self.wpp)
        self.pool = [UserProcess(kernel, name=f"fe{i}")
                     for i in range(SERVE_FRONTENDS)]

    def _read(self, ops: _Ops, frontend, fd: int, page: int,
              expected: np.ndarray) -> None:
        with ops.op(self.clock):
            values = frontend.read_file_page(fd, page)
        self.crc = zlib.crc32(values.tobytes(), self.crc)
        if not np.array_equal(values, expected):
            raise Mismatch(f"{frontend.task.name} read page {page} of fd "
                           f"{fd}: wrong contents")

    def _request(self, ops: _Ops, fn, *args):
        with ops.op(self.clock):
            return fn(*args)

    def run(self, timer=None, ref=None) -> PassResult:
        ops = _Ops(timer, ref)
        self.crc = 0
        start = self.clock.cycles
        for user in range(self.users):
            try:
                self._user(ops, user)
            except Exception as error:   # a failed request: count it, go on
                ops.fail(error)
        result = ops.result
        result.sim_cycles = self.clock.cycles - start
        kernel = self.kernel
        counters = kernel.machine.counters.snapshot()
        result.digest = digest([result.sim_cycles, counters, self.crc])
        result.stats = dict(counters,
                            bc_hits=kernel.buffer_cache.hits,
                            bc_misses=kernel.buffer_cache.misses,
                            disk_reads=kernel.disk.reads,
                            disk_writes=kernel.disk.writes)
        return result


class ServeRead(_Serve):
    """Read-mostly traffic on six hot 4-page files that fit in the buffer
    cache: each user stats, opens, reads a page and closes; one in four
    re-reads a second page; one in sixteen uploads a scratch file, reads
    it back and removes it."""

    name = "serve-read"
    USERS = 7_000

    def setup(self, timer=None, ref=None) -> None:
        self._boot(timer, n_files=6, file_pages=4, prefix="hot")

    def _user(self, ops: _Ops, user: int) -> None:
        h = zlib.crc32(f"{self.seed}/{user}".encode())
        frontend = self.pool[h % SERVE_FRONTENDS]
        index = (h >> 4) % len(self.names)
        name = self.names[index]
        self._request(ops, frontend.stat, name)
        fd = self._request(ops, frontend.open, name)
        page = (h >> 8) % self.file_pages
        self._read(ops, frontend, fd, page, self.on_disk[(index, page)])
        if (h >> 16) % 4 == 0:
            page = (h >> 18) % self.file_pages
            self._read(ops, frontend, fd, page, self.on_disk[(index, page)])
        self._request(ops, frontend.close, fd)
        if (h >> 20) % 16 == 0:
            scratch = f"srv/tmp{user}"
            values = page_values(self.seed, "upload", user, self.wpp)
            self._request(ops, frontend.create, scratch)
            fd = self._request(ops, frontend.open, scratch)
            self._request(ops, frontend.write_file_page, fd, 0, values)
            self._read(ops, frontend, fd, 0, values)
            self._request(ops, frontend.close, fd)
            self._request(ops, frontend.remove, scratch)


class ServeWrite(_Serve):
    """Mixed traffic on 48 files of 8 pages, eight times the buffer
    cache: each user opens a file, then writes a page of seed-derived
    values or reads a page and checks it against the last write (or the
    on-disk block), then closes."""

    name = "serve-write"
    USERS = 9_000
    N_FILES = 48
    FILE_PAGES = 8

    def setup(self, timer=None, ref=None) -> None:
        self._boot(timer, n_files=self.N_FILES, file_pages=self.FILE_PAGES,
                   prefix="data")
        self.last_write: dict = {}

    def _user(self, ops: _Ops, user: int) -> None:
        h = zlib.crc32(f"{self.seed}/{user}".encode())
        frontend = self.pool[h % SERVE_FRONTENDS]
        index = (h >> 4) % len(self.names)
        page = (h >> 12) % self.file_pages
        fd = self._request(ops, frontend.open, self.names[index])
        if (h >> 20) & 1:
            values = page_values(self.seed, "write", user, self.wpp)
            self._request(ops, frontend.write_file_page, fd, page, values)
            self.last_write[(index, page)] = values
        else:
            expected = self.last_write.get((index, page))
            if expected is None:
                expected = self.on_disk[(index, page)]
            self._read(ops, frontend, fd, page, expected)
        self._request(ops, frontend.close, fd)


# ---- the paper's workloads, live and replayed -------------------------------


class PaperLive:
    """afs-bench, latex-paper and kernel-build under policies A and F, on
    the live simulator, ``rounds`` times.  One request is one round: each
    program's execute and shutdown, on a kernel of its own booted fresh
    for the round.  Every round's boots are set-up: the first round's
    before the window, each later round's between two requests."""

    name = "paper-live"
    ROUNDS = 12
    layers_run = LIVE_LAYERS

    def __init__(self, seed: int, scale: float = PAPER_SCALE,
                 pairs=PAPER_PAIRS, rounds: int = ROUNDS):
        self.scale = scale
        self.pairs = pairs
        self.rounds = rounds

    def _boot(self, timer) -> list:
        config = evaluation_machine(phys_pages=PAPER_PHYS_PAGES)
        runs = []
        for name, policy in self.pairs:
            kernel = Kernel(policy=policy, config=config,
                            buffer_cache_pages=PAPER_BUFFER_CACHE_PAGES)
            if timer is not None:
                timer.attach_kernel(kernel)
            program = make_workload(name, self.scale)
            _in_span(timer, kernel.machine.clock, program.setup, kernel)
            runs.append((kernel, program))
        return runs

    def setup(self, timer=None, ref=None) -> None:
        self.runs = self._boot(timer)

    @staticmethod
    def _execute(kernel, program) -> None:
        program.execute(kernel)
        kernel.shutdown()

    def run(self, timer=None, ref=None) -> PassResult:
        ops = _Ops(timer, ref)
        outcome = []
        stats: dict = {}
        for round_no in range(self.rounds):
            if round_no:
                # Free the last round's kernels before booting the next
                # round's: drop the timer's hold on them, and collect
                # them, since they sit in reference cycles.
                self.runs = None
                if timer is not None:
                    timer.detach()
                gc.collect()
                t0 = time.perf_counter_ns()
                self.runs = self._boot(timer)
                ops.result.setup_spans.append((t0, time.perf_counter_ns()))
            cycles = []
            try:
                with ops.op() as op:
                    for kernel, program in self.runs:
                        if ref is not None:
                            ref.maybe_mark()
                        clock = kernel.machine.clock
                        start = clock.cycles
                        _in_span(timer, clock, self._execute, kernel, program)
                        cycles.append(clock.cycles - start)
                        op.cycles += cycles[-1]
                if round_no == 0:
                    for (kernel, _), used in zip(self.runs, cycles):
                        counters = kernel.machine.counters.snapshot()
                        outcome.append([used, counters])
                        _sum_into(stats, dict(
                            counters, bc_hits=kernel.buffer_cache.hits,
                            bc_misses=kernel.buffer_cache.misses,
                            disk_reads=kernel.disk.reads,
                            disk_writes=kernel.disk.writes))
                elif cycles != [used for used, _ in outcome]:
                    raise Mismatch(f"round {round_no} took {cycles} "
                                   f"simulated cycles, round 0 "
                                   f"{[used for used, _ in outcome]}")
            except Exception as error:   # a failed round: count it, go on
                ops.fail(error)
        result = ops.result
        result.sim_cycles = sum(result.op_cycles)
        result.digest = digest(outcome)
        result.stats = stats
        return result


class PaperReplay:
    """The same six programs compiled to traces (set-up), then replayed
    ``rounds`` times: one request is one round, a replay of each trace.
    Replay runs below the kernel, so only the interpreter and its caches
    work."""

    name = "paper-replay"
    ROUNDS = 40
    layers_run = frozenset({"workload", "hw.cache", "trace.compile",
                            "trace.replay"})

    def __init__(self, seed: int, scale: float = PAPER_SCALE,
                 pairs=PAPER_PAIRS, rounds: int = ROUNDS):
        self.scale = scale
        self.pairs = pairs
        self.rounds = rounds

    def setup(self, timer=None, ref=None) -> None:
        config = evaluation_machine(phys_pages=PAPER_PHYS_PAGES)
        self.traces = []
        for name, policy in self.pairs:
            if ref is not None:
                ref.maybe_mark()
            program = make_workload(name, self.scale)
            if timer is None:
                trace = self._compile(program, policy, config)
            else:
                with timer.span("trace.compile") as span:
                    trace = self._compile(program, policy, config)
                    span.cycles = trace.end_clock
            start = decode_counters(trace.start_counters).snapshot()
            self.traces.append((trace, start))

    @staticmethod
    def _compile(program, policy, config):
        return compile_workload(
            program, policy, config=config,
            buffer_cache_pages=PAPER_BUFFER_CACHE_PAGES)

    @staticmethod
    def _replay(timer, trace):
        if timer is None:
            return replay_trace(trace)
        with timer.span("trace.replay") as span:
            replayed = replay_trace(trace)
            span.cycles = replayed.clock - trace.start_clock
        return replayed

    def run(self, timer=None, ref=None) -> PassResult:
        ops = _Ops(timer, ref)
        if timer is not None:
            timer.attach_replay()
        outcome = []
        stats: dict = {}
        for round_no in range(self.rounds):
            try:
                with ops.op() as op:
                    for trace, start in self.traces:
                        if ref is not None:
                            ref.maybe_mark()
                        replayed = self._replay(timer, trace)
                        if not replayed.equivalent:
                            raise Mismatch("replay not equivalent: "
                                           + "; ".join(replayed.mismatches))
                        cycles = replayed.clock - trace.start_clock
                        op.cycles += cycles
                        if round_no == 0:
                            end = replayed.counters.snapshot()
                            outcome.append([cycles, end])
                            _sum_into(stats, {key: end[key] - start[key]
                                              for key in end})
                            _sum_into(stats, {"replay_ops": replayed.n_ops})
            except Exception as error:   # a failed round: count it, go on
                ops.fail(error)
        result = ops.result
        result.sim_cycles = sum(result.op_cycles)
        result.digest = digest(outcome)
        result.stats = stats
        return result


WORKLOADS = {cls.name: cls
             for cls in (ServeRead, ServeWrite, PaperLive, PaperReplay)}
