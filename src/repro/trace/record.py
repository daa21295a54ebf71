"""The trace compiler: record a live workload run as a flat op-stream.

Recording is *observation only*: the run executes through the normal
kernel/machine paths and must produce exactly the counters, clock and
events it would without the recorder (asserted by the round-trip
property tests).  The recorder wraps the depth-0 entry points of the two
caches, physical memory's mutators and the event bus with instance
attributes; a shared reentrancy depth guard suppresses inner calls
(``zero_page`` -> ``write_page``, a write-through store ->
``memory.write_word``), so each hardware transaction is recorded exactly
once, at the granularity the machine-dependent layer issued it.

Everything else the system does to the shared clock and counters between
recorded ops — TLB accounting, fault handling, DMA setup charges,
compute time, injection recovery — is reconciled by SYNC deltas emitted
lazily before the next op.  This is what makes the compiler total: it
needs no model of the kernel, only of drift.  The clock and the counters
are marked after each op and compared before the next: the 17 encoded
scalars, and the six breakdowns (flushes, purges and faults by cache,
reason and kind) as :class:`Counters`' two tallies.  The breakdowns'
only writers are ``Counters.record_*``; read through their views, they
cannot change behind the mark.  Between most ops only the clock, the
TLB's two counters and, after a fault, the fault tally move, so one
comparison of everything else finds that case and its delta is interned
by those few differences.

Composed with the conformance monitor, the recorder attaches first
(innermost) and the monitor second, so the monitor's judgments run
outside the recorder's depth guard and its divergence events are
recorded (and replayed) like any other.  Detaching in reverse is
enforced: both install through :class:`~repro.obs.patch.Patches`.
"""

from __future__ import annotations

import hashlib
import json
import operator
from itertools import zip_longest

import numpy as np

from repro.analysis.experiments import (EVALUATION_BUFFER_CACHE_PAGES,
                                        FailStop, boot, evaluation_machine)
from repro.errors import ConfigurationError
from repro.hw.machine import Machine
from repro.hw.stats import N_KINDS, Reason
from repro.obs.patch import Observer, Patches
from repro.policy import resolve
from repro.trace.format import (
    OP_BUS, OP_D_FLUSH, OP_D_INVAL, OP_D_PURGE, OP_D_READ_PAGE,
    OP_D_READ_RUN, OP_D_WRITE_PAGE, OP_D_WRITE_RUN, OP_D_ZERO_PAGE,
    OP_I_FLUSH, OP_I_INVAL, OP_I_PURGE, OP_I_READ_PAGE, OP_I_READ_RUN,
    OP_I_WRITE_PAGE, OP_I_WRITE_RUN, OP_I_ZERO_PAGE, OP_MEM_WRITE,
    OP_SYNC, OP_DTYPE, COUNTER_SCALARS, UNENCODED_SCALARS,
    CacheImage, Trace, TraceFormatError, encode_cost, encode_counters,
    encode_geometry, encode_tally,
)

#: the cache entry points recorded at depth 0 (management + data ops).
_CACHE_METHODS = ("read", "write", "read_run", "write_run", "read_page",
                  "write_page", "zero_page", "flush_page_frame",
                  "purge_page_frame", "invalidate_all")
#: physical-memory mutators reachable at depth 0 (DMA deliveries and
#: uncached stores); reads need no recording and ``write_line`` /
#: ``zero_page`` have no depth-0 callers.
_MEMORY_METHODS = ("write_word", "write_words", "write_page")

#: the encoded scalars but the TLB's two, which move between most ops
_COLD_SCALARS = tuple(name for name in COUNTER_SCALARS
                      if name not in ("tlb_hits", "tlb_misses"))
_cold = operator.attrgetter(*_COLD_SCALARS)
_unencoded = operator.attrgetter(*UNENCODED_SCALARS)
_NO_FAULTS = (0,) * (2 * N_KINDS)


def _moved(now: list, then: list) -> tuple:
    """The cache tally's ``now - then`` slot by slot (a row registered
    since counts from zero), or () if no slot moved."""
    if now == then:
        return ()
    return tuple(n - m for n, m in zip_longest(now, then, fillvalue=0))


def _delta_key(delta: dict) -> frozenset:
    """A hashable key equal for two deltas exactly when their canonical
    JSON spellings are."""
    return frozenset((name, frozenset(v.items()) if type(v) is dict else v)
                     for name, v in delta.items())


def capture_memory_image(memory) -> tuple[np.ndarray, np.ndarray]:
    """The sparse image of ``memory``: the numbers of its pages that hold
    a nonzero word, ascending, and those pages' words, one row each.

    A word is unsigned, so a page is nonzero iff its maximum is.  This
    scan runs once, at capture; replay only copies the rows back.
    """
    pages = memory._words.reshape(memory.num_pages, memory.words_per_page)
    numbers = pages.max(axis=1).nonzero()[0].astype(np.int64, copy=False)
    return numbers, pages[numbers]


def capture_cache_image(cache) -> CacheImage:
    return CacheImage(tags=cache._tags.copy(), dirty=cache._dirty.copy(),
                      data=cache._data.copy(), lru=cache._lru.copy(),
                      tick=cache._tick)


class TraceRecorder(Observer):
    """Records every depth-0 hardware transaction of a machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.clock = machine.clock
        self.counters = machine.counters
        self._depth = 0
        self._ops: list[tuple] = []
        self._values: list = []          # uint64 arrays, in op order
        self._sidecar: list = []
        self._sidecar_index: dict = {}   # canonical key -> sidecar index
        self._sync_index: dict = {}      # raw drift key -> sidecar index
        self._faults_mark = None
        self._cold_mark = ((), None)
        self._mark()

    # ---- drift reconciliation ------------------------------------------------
    #
    # Between most ops only the clock and the hot counters move: the TLB's
    # hits and misses, and the fault tally when a fault was taken.  The
    # mark keeps those one by one, and everything else (the cold part:
    # the other 15 encoded scalars as one tuple and a copy of the cache
    # tally) as one pair, so one equality finds the common case and its
    # delta is interned by the hot differences alone.  Other drift is
    # keyed by the cold differences too.  A tally is copied again only
    # when it moved.  The encoded delta and its canonical key are built
    # once per distinct raw key, and equal
    # ``diff_counters(encode_counters(mark), encode_counters(now))``.

    def _sidecar_ref(self, entry, key) -> int:
        """Intern a sidecar entry under ``key``; equal keys share a slot."""
        idx = self._sidecar_index.get(key)
        if idx is None:
            idx = len(self._sidecar)
            self._sidecar.append(entry)
            self._sidecar_index[key] = idx
        return idx

    def _sync_ref(self, hot: tuple, scalars: tuple = (),
                  caches: tuple = ()) -> int:
        """The sidecar slot of a SYNC delta (-1 if it encodes to nothing):
        ``hot`` is the TLB hits', TLB misses' and fault tally's
        differences, ``scalars`` and ``caches`` the cold part's (empty if
        it did not move)."""
        raw = (hot, scalars, caches) if scalars else hot
        idx = self._sync_index.get(raw)
        if idx is None:
            hits, misses, faults = hot
            delta = {name: d for name, d in (("tlb_hits", hits),
                                             ("tlb_misses", misses)) if d}
            delta.update((name, d) for name, d in zip(_COLD_SCALARS,
                                                       scalars) if d)
            if faults or caches:
                delta.update((name, moved) for name, moved in encode_tally(
                    self.counters.rows if caches else {}, caches,
                    faults or _NO_FAULTS).items() if moved)
            idx = self._sidecar_ref(delta, _delta_key(delta)) if delta else -1
            self._sync_index[raw] = idx
        return idx

    def _pre_op(self) -> None:
        """Emit a SYNC for any clock/counter drift since the last op."""
        counters = self.counters
        clock_now = self.clock.cycles
        hits = counters.tlb_hits - self._hits_mark
        misses = counters.tlb_misses - self._misses_mark
        faults = counters.fault_tally
        faults = (() if faults == self._faults_mark
                  else tuple(map(operator.sub, faults, self._faults_mark)))
        cold = (_cold(counters), counters.cache_tally)
        if cold == self._cold_mark:
            if not (hits or misses or faults):
                if clock_now == self._clock_mark:
                    return
                aux = -1
            else:
                aux = self._sync_ref((hits, misses, faults))
        else:
            scalars, caches = self._cold_mark
            caches_moved = _moved(cold[1], caches)
            aux = self._sync_ref(
                (hits, misses, faults),
                tuple(map(operator.sub, cold[0], scalars)), caches_moved)
            self._cold_mark = (cold[0],
                               cold[1][:] if caches_moved else caches)
        self._hits_mark += hits
        self._misses_mark += misses
        if faults:
            self._faults_mark = counters.fault_tally[:]
        # Amounts that cancel encode to nothing: with the clock still,
        # there is no drift to emit.
        if aux >= 0 or clock_now != self._clock_mark:
            self._ops.append((OP_SYNC, 0, clock_now - self._clock_mark, 0,
                              aux))
            self._clock_mark = clock_now

    def _mark(self) -> None:
        """Mark the clock and counters: before attach and after each op."""
        counters = self.counters
        self._clock_mark = self.clock.cycles
        self._hits_mark = counters.tlb_hits
        self._misses_mark = counters.tlb_misses
        if counters.fault_tally != self._faults_mark:
            self._faults_mark = counters.fault_tally[:]
        caches = self._cold_mark[1]
        if counters.cache_tally != caches:
            caches = counters.cache_tally[:]
        self._cold_mark = (_cold(counters), caches)

    # ---- wrapping -------------------------------------------------------------

    def _wrap(self, patches: Patches, obj, name: str, row) -> None:
        """Record each depth-0 call of ``obj.name`` as the op ``row(*args)``
        returns; ``row`` queues any values the op consumes."""
        pre_op, mark, append = self._pre_op, self._mark, self._ops.append

        def make(orig):
            def wrapper(*args, **kwargs):
                if self._depth:
                    return orig(*args, **kwargs)
                pre_op()
                append(row(*args, **kwargs))
                self._depth += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._depth -= 1
                    mark()
            return wrapper

        patches.wrap(obj, name, make)

    def _queue(self, values) -> int:
        """Queue an op's values; return how many."""
        self._values.append(np.array(values, dtype=np.uint64))
        return len(values)

    def _wrap_cache(self, patches: Patches, cache, ops: tuple) -> None:
        run_r, run_w, page_r, page_w, page_z, flush, purge, inval = ops
        queue = self._queue
        rows = {
            "read": lambda va, pa: (run_r, 0, int(va), 1, int(pa)),
            "read_run": lambda va, pa, n: (run_r, 0, int(va), int(n),
                                           int(pa)),
            "write": lambda va, pa, value: (run_w, 0, int(va),
                                            queue((value,)), int(pa)),
            "write_run": lambda va, pa, values: (run_w, 0, int(va),
                                                 queue(values), int(pa)),
            "read_page": lambda va, pa: (page_r, 0, int(va), 0, int(pa)),
            "write_page": lambda va, pa, values: (page_w, 0, int(va),
                                                  queue(values), int(pa)),
            "zero_page": lambda va, pa: (page_z, 0, int(va), 0, int(pa)),
            "flush_page_frame": lambda cp, pa, reason=Reason.EXPLICIT:
                (flush, reason.index, int(cp), 0, int(pa)),
            "purge_page_frame": lambda cp, pa, reason=Reason.EXPLICIT:
                (purge, reason.index, int(cp), 0, int(pa)),
            "invalidate_all": lambda: (inval, 0, 0, 0, 0),
        }
        for name in _CACHE_METHODS:
            self._wrap(patches, cache, name, rows[name])

    def _install(self, patches: Patches) -> None:
        machine = self.machine
        self._mark()
        self._wrap_cache(patches, machine.dcache, (
            OP_D_READ_RUN, OP_D_WRITE_RUN, OP_D_READ_PAGE, OP_D_WRITE_PAGE,
            OP_D_ZERO_PAGE, OP_D_FLUSH, OP_D_PURGE, OP_D_INVAL))
        self._wrap_cache(patches, machine.icache, (
            OP_I_READ_RUN, OP_I_WRITE_RUN, OP_I_READ_PAGE, OP_I_WRITE_PAGE,
            OP_I_ZERO_PAGE, OP_I_FLUSH, OP_I_PURGE, OP_I_INVAL))

        page_size = machine.memory.page_size
        queue = self._queue
        rows = {
            "write_word": lambda pa, value: (OP_MEM_WRITE, 0, int(pa),
                                             queue((value,)), 0),
            "write_words": lambda pa, values: (OP_MEM_WRITE, 0, int(pa),
                                               queue(values), 0),
            "write_page": lambda ppage, values: (
                OP_MEM_WRITE, 0, int(ppage * page_size), queue(values), 0),
        }
        for name in _MEMORY_METHODS:
            self._wrap(patches, machine.memory, name, rows[name])

        patches.set(machine.bus, "tap", self._on_publish)

    def _on_publish(self, kind: str, detail: dict) -> None:
        """Bus tap: record depth-0 publishes as explicit BUS ops.

        Publishes from inside a recorded cache operation (flush/purge
        events) are skipped — the replayed operation republishes them
        itself, at the same clock and sequence position.  Publication
        moves neither clock nor counters, so no new mark is needed.
        """
        if self._depth:
            return
        self._pre_op()
        # Round-trip the detail through JSON now: the replayed event then
        # renders to the same JSONL bytes (Event.to_json applies
        # default=str to the same leaves).
        jsonable = json.loads(json.dumps(detail, default=str))
        entry = {"k": kind, "d": jsonable}
        key = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        self._ops.append((OP_BUS, 0, 0, 0, self._sidecar_ref(entry, key)))

    # ---- assembly -------------------------------------------------------------

    def finish(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Emit the trailing drift SYNC and build the final arrays."""
        self._pre_op()
        ops = np.array(self._ops, dtype=OP_DTYPE)
        values = (np.concatenate(self._values) if self._values
                  else np.zeros(0, dtype=np.uint64))
        return ops, values, self._sidecar


def record_run(workload, kernel, trace_events: bool = False,
               meta: dict | None = None, monitor=None) -> Trace:
    """Record ``workload.execute(kernel)`` (setup must already have run).

    Mirrors the :func:`~repro.analysis.experiments.run_workload`
    measurement protocol: the recorded window is exactly the execute
    phase, so the trace's end-minus-start counters equal the metrics of
    an interpreted run.  With ``trace_events`` the bus is enabled for the
    window and the captured JSONL becomes part of the equivalence
    contract (its hash is stored; replay must reproduce it bit for bit).
    An unattached :class:`ConformanceMonitor` may be passed in; it is
    attached outside the recorder (see the module docstring on ordering).
    A window that moves a counter the codec does not encode
    (:data:`~repro.trace.format.UNENCODED_SCALARS`) raises
    :class:`TraceFormatError`: replay could not reproduce it.
    """
    machine = kernel.machine
    events: list = []
    if trace_events:
        machine.bus.enable()
        machine.bus.subscribe(events.append)

    start_pages, start_rows = capture_memory_image(machine.memory)
    start_dcache = capture_cache_image(machine.dcache)
    start_icache = capture_cache_image(machine.icache)
    start_clock = machine.clock.cycles
    start_counters = encode_counters(machine.counters)
    start_unencoded = _unencoded(machine.counters)

    recorder = TraceRecorder(machine).attach()
    try:
        if monitor is not None:
            monitor.attach()
        workload.execute(kernel)
    finally:
        if monitor is not None:
            monitor.detach()
        recorder.detach()
        if trace_events:
            machine.bus.unsubscribe(events.append)
            machine.bus.disable()
    moved = [name for name, then, now in zip(
        UNENCODED_SCALARS, start_unencoded, _unencoded(machine.counters))
        if now != then]
    if moved:
        raise TraceFormatError(
            f"{workload.name}: {', '.join(moved)} moved during the "
            f"recorded window; the trace format does not encode them")
    ops, values, sidecar = recorder.finish()

    jsonl = sha = None
    if trace_events:
        jsonl = "".join(e.to_json() + "\n" for e in events)
        sha = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()

    config = machine.config
    return Trace(
        meta=dict(meta or {}, workload=workload.name),
        config={"dcache": encode_geometry(config.dcache),
                "icache": encode_geometry(config.icache),
                "cost": encode_cost(config.cost),
                "phys_pages": config.phys_pages,
                "page_size": config.page_size},
        ops=ops, values=values, sidecar=sidecar,
        start_pages=start_pages, start_rows=start_rows,
        start_dcache=start_dcache,
        start_icache=start_icache, start_clock=start_clock,
        start_counters=start_counters,
        end_clock=machine.clock.cycles,
        end_counters=encode_counters(machine.counters),
        n_events=len(events), end_events_sha256=sha, events_jsonl=jsonl,
    )


def compile_workload(workload, policy, config=None,
                     buffer_cache_pages=EVALUATION_BUFFER_CACHE_PAGES,
                     inject: str | None = None, seed: int = 0,
                     conform: bool = False,
                     trace_events: bool = False) -> Trace | FailStop:
    """Boot a kernel, run ``workload`` on it and compile the run.

    Composition happens here, at compile time: the kernel comes from
    :func:`~repro.analysis.experiments.boot`, so an injection plan arms
    the fault injector at boot, as for a live run (its effects — dropped
    or duplicated flushes, parity recoveries, DMA retries — are baked
    into the recorded stream), and ``conform`` shadows the execute
    window with the lockstep monitor (its divergence events are recorded
    like any others).  Replay needs neither: a trace replays below the
    level where kernels, injectors and monitors exist.  Setup and the
    recorded window share :meth:`BootedKernel.guard`'s fail-stop rule:
    when an armed plan stops the run, the result is its
    :class:`~repro.analysis.experiments.FailStop`, not a trace.
    """
    policy = resolve(policy)
    if policy.origin == "external":
        # Replay recomputes flush/purge costs from the encoded geometry
        # and cost model alone; an external strategy's hook behaviour
        # (exact-cost management, out-of-band lookup charges, superpage
        # short-circuits) lives in the kernel, which replay bypasses.
        raise ConfigurationError(
            f"trace compilation supports only the paper's flag-bag "
            f"policies; {policy.name!r} is an external strategy the "
            f"replay interpreter cannot reconstruct")
    if config is None:
        config = evaluation_machine()
    if config.has_hierarchy:
        # Replay rebuilds bare L1s from the encoded geometries; a victim
        # cache or L2 would change fill costs the artifact cannot carry.
        # (Set-associative and write-through L1s are fine: the encoded
        # geometry reconstructs them, via the exact interpreter tier.)
        raise ConfigurationError(
            "trace compilation does not support victim-cache or L2 "
            "geometries; record on a bare L1 or run the live simulator")
    if config.n_cpus > 1:
        # A trace starts from one bare data cache's image and replays on
        # one CPU; a cluster's per-CPU caches and snoops have no encoding.
        raise ConfigurationError(
            f"trace compilation supports one CPU, not n_cpus="
            f"{config.n_cpus}; run the live simulator for SMP")
    booted = boot(policy, config, buffer_cache_pages=buffer_cache_pages,
                  inject=inject, seed=seed, conform=conform)
    meta = {"policy": policy.name,
            "inject": inject, "seed": seed if inject else None,
            "conform": bool(conform), "events": bool(trace_events)}

    def setup_and_record() -> Trace:
        workload.setup(booted.kernel)
        return record_run(workload, booted.kernel,
                          trace_events=trace_events, meta=meta,
                          monitor=booted.monitor)

    trace = booted.guard(setup_and_record)
    if booted.monitor is not None and isinstance(trace, Trace):
        trace.meta["divergences"] = len(booted.monitor.divergences)
    return trace
