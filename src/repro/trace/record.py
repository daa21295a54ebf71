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
needs no model of the kernel, only of drift.  Drift is learnt where it
happens.  The clock and the 17 encoded scalars are marked after each op
and compared before the next.  The six ``Counter`` fields (flushes,
purges and faults by cache, reason and kind) are never compared: their
only writers, ``Counters.record_flush``/``record_purge``/
``record_fault``, are wrapped too, and a call between ops (a fault)
adds to the pending SYNC delta while a call inside an op belongs to
that op.  :func:`record_run` checks at the end of the window that the
fields equal their start plus every call the wrappers saw, and refuses
a window that wrote them any other way.

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
from collections import Counter

import numpy as np

from repro.analysis.experiments import (EVALUATION_BUFFER_CACHE_PAGES,
                                        FailStop, boot, evaluation_machine)
from repro.errors import ConfigurationError
from repro.hw.machine import Machine
from repro.hw.stats import Counters, Reason
from repro.obs.patch import Observer, Patches
from repro.policy import resolve
from repro.trace.format import (
    OP_BUS, OP_D_FLUSH, OP_D_INVAL, OP_D_PURGE, OP_D_READ_PAGE,
    OP_D_READ_RUN, OP_D_WRITE_PAGE, OP_D_WRITE_RUN, OP_D_ZERO_PAGE,
    OP_I_FLUSH, OP_I_INVAL, OP_I_PURGE, OP_I_READ_PAGE, OP_I_READ_RUN,
    OP_I_WRITE_PAGE, OP_I_WRITE_RUN, OP_I_ZERO_PAGE, OP_MEM_WRITE,
    OP_SYNC, OP_DTYPE, REASON_INDEX, COUNTER_DICT_FIELDS,
    COUNTER_KEY_ENCODERS, COUNTER_SCALARS, UNENCODED_SCALARS, CacheImage,
    Trace, TraceFormatError, encode_cost, encode_counters, encode_geometry,
)

#: the cache entry points recorded at depth 0 (management + data ops).
_CACHE_METHODS = ("read", "write", "read_run", "write_run", "read_page",
                  "write_page", "zero_page", "flush_page_frame",
                  "purge_page_frame", "invalidate_all")
#: physical-memory mutators reachable at depth 0 (DMA deliveries and
#: uncached stores); reads need no recording and ``write_line`` /
#: ``zero_page`` have no depth-0 callers.
_MEMORY_METHODS = ("write_word", "write_words", "write_page")

_scalars = operator.attrgetter(*COUNTER_SCALARS)
_unencoded = operator.attrgetter(*UNENCODED_SCALARS)
_KEY_OF = dict(zip(COUNTER_DICT_FIELDS, COUNTER_KEY_ENCODERS))
#: the only writers of the six Counter fields during a live run: each
#: method's two fields, the count and the cycles under one key.
_TALLY_METHODS = (("record_flush", "page_flushes", "flush_cycles"),
                  ("record_purge", "page_purges", "purge_cycles"),
                  ("record_fault", "faults", "fault_cycles"))
# dict's own equality, not Counter's (which counts a zero entry as
# absent): the guard refuses a key added or dropped behind the wrappers.
_dict_eq = dict.__eq__


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
        self._values: list = []          # ints and uint64 arrays, in op order
        self._sidecar: list = []
        self._sidecar_index: dict = {}   # canonical key -> sidecar index
        self._sync_index: dict = {}      # raw drift key -> sidecar index
        self._pending: dict = {}         # (field, encoded key) -> amount
        self._mark()

    # ---- drift reconciliation ------------------------------------------------
    #
    # The scalar mark is the clock plus the 17 encoded scalars as one
    # tuple; "nothing moved" is an exact equality against it.  The six
    # Counter fields are not marked: their writers (``Counters.record_*``)
    # are wrapped, and a call at depth 0 adds its encoded amounts to
    # ``_pending``.  A SYNC's sidecar slot is found by the raw scalar
    # difference plus the pending amounts; the encoded delta and its
    # canonical key are built once per distinct raw key.  The delta
    # equals ``diff_counters(encode_counters(mark), encode_counters(now))``.

    def _sidecar_ref(self, entry, key) -> int:
        """Intern a sidecar entry under ``key``; equal keys share a slot."""
        idx = self._sidecar_index.get(key)
        if idx is None:
            idx = len(self._sidecar)
            self._sidecar.append(entry)
            self._sidecar_index[key] = idx
        return idx

    def _sync_ref(self, diff: tuple, pending: dict) -> int:
        """The sidecar slot of a SYNC delta (-1 if it encodes to nothing)."""
        raw = (diff, frozenset(pending.items()) if pending else None)
        idx = self._sync_index.get(raw)
        if idx is None:
            delta = {name: d for name, d in zip(COUNTER_SCALARS, diff) if d}
            for (name, key), n in pending.items():
                if n:
                    delta.setdefault(name, {})[key] = n
            idx = self._sidecar_ref(delta, _delta_key(delta)) if delta else -1
            self._sync_index[raw] = idx
        return idx

    def _pre_op(self) -> None:
        """Emit a SYNC for any clock/counter drift since the last op."""
        clock_now = self.clock.cycles
        scalars = _scalars(self.counters)
        pending = self._pending
        if (not pending and clock_now == self._clock_mark
                and scalars == self._scalars_mark):
            return
        aux = -1
        if pending or scalars != self._scalars_mark:
            aux = self._sync_ref(tuple(map(operator.sub, scalars,
                                           self._scalars_mark)), pending)
            pending.clear()
            self._scalars_mark = scalars
        # Amounts that cancel encode to nothing: with the clock still,
        # there is no drift to emit.
        if aux >= 0 or clock_now != self._clock_mark:
            self._ops.append((OP_SYNC, 0, clock_now - self._clock_mark, 0,
                              aux))
            self._clock_mark = clock_now

    def _mark(self) -> None:
        """Mark the clock and scalars: before attach and after each op."""
        self._clock_mark = self.clock.cycles
        self._scalars_mark = _scalars(self.counters)

    def untallied_fields(self) -> list[str]:
        """The Counter fields that differ from their image at attach plus
        every ``record_*`` call the wrappers saw: written some other way."""
        return [name for name in COUNTER_DICT_FIELDS
                if not _dict_eq(getattr(self.counters, name),
                                getattr(self._tallied, name))]

    # ---- wrapping -------------------------------------------------------------

    def _wrap(self, patches: Patches, obj, name: str, emit) -> None:
        def make(orig):
            def wrapper(*args, **kwargs):
                if self._depth:
                    return orig(*args, **kwargs)
                self._pre_op()
                emit(*args, **kwargs)
                self._depth += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._depth -= 1
                    self._mark()
            return wrapper

        patches.wrap(obj, name, make)

    def _emit(self, op: int, asid: int = 0, va: int = 0, length: int = 0,
              aux: int = 0) -> None:
        self._ops.append((op, asid, int(va), int(length), int(aux)))

    def _wrap_cache(self, patches: Patches, cache, base: dict) -> None:
        emitters = {
            "read": lambda va, pa: self._emit(base["run_r"], va=va,
                                              length=1, aux=pa),
            "read_run": lambda va, pa, n: self._emit(base["run_r"], va=va,
                                                     length=n, aux=pa),
            "write": lambda va, pa, value: (
                self._emit(base["run_w"], va=va, length=1, aux=pa),
                self._values.append(int(np.uint64(value)))),
            "write_run": lambda va, pa, values: (
                self._emit(base["run_w"], va=va, length=len(values), aux=pa),
                self._values.append(np.array(values, dtype=np.uint64))),
            "read_page": lambda va, pa: self._emit(base["page_r"], va=va,
                                                   aux=pa),
            "write_page": lambda va, pa, values: (
                self._emit(base["page_w"], va=va, length=len(values), aux=pa),
                self._values.append(np.array(values, dtype=np.uint64))),
            "zero_page": lambda va, pa: self._emit(base["page_z"], va=va,
                                                   aux=pa),
            "flush_page_frame": lambda cp, pa, reason=Reason.EXPLICIT:
                self._emit(base["flush"], asid=REASON_INDEX[reason],
                           va=cp, aux=pa),
            "purge_page_frame": lambda cp, pa, reason=Reason.EXPLICIT:
                self._emit(base["purge"], asid=REASON_INDEX[reason],
                           va=cp, aux=pa),
            "invalidate_all": lambda: self._emit(base["inval"]),
        }
        for name in _CACHE_METHODS:
            self._wrap(patches, cache, name, emitters[name])

    def _wrap_tally(self, patches: Patches, method: str, count_field: str,
                    cycles_field: str) -> None:
        """Wrap one writer of the Counter fields.  Every call is repeated
        on ``_tallied`` for the end-of-window guard.  A call at depth 0
        (a fault between ops) also adds its encoded amounts to the
        pending SYNC; one inside a recorded op belongs to the op, and
        replay reproduces it."""
        key_of = _KEY_OF[count_field]
        shadow = getattr(self._tallied, method)
        pending = self._pending

        def make(orig):
            def wrapper(*args):          # (cache, reason, cycles) or
                orig(*args)              # (kind, cycles)
                shadow(*args)
                if not self._depth:
                    cycles = args[-1]
                    key = key_of(args[0] if len(args) == 2 else args[:2])
                    count = (count_field, key)
                    pending[count] = pending.get(count, 0) + 1
                    if cycles:
                        spent = (cycles_field, key)
                        pending[spent] = pending.get(spent, 0) + cycles
            return wrapper

        patches.wrap(self.counters, method, make)

    def _install(self, patches: Patches) -> None:
        machine = self.machine
        self._mark()
        self._pending.clear()
        # The guard's reference: the Counter fields at attach (a copy
        # keeps zero entries), then every call the wrappers see.
        self._tallied = Counters()
        for name in COUNTER_DICT_FIELDS:
            setattr(self._tallied, name,
                    Counter(getattr(machine.counters, name)))
        for method, count_field, cycles_field in _TALLY_METHODS:
            self._wrap_tally(patches, method, count_field, cycles_field)
        self._wrap_cache(patches, machine.dcache, {
            "run_r": OP_D_READ_RUN, "run_w": OP_D_WRITE_RUN,
            "page_r": OP_D_READ_PAGE, "page_w": OP_D_WRITE_PAGE,
            "page_z": OP_D_ZERO_PAGE, "flush": OP_D_FLUSH,
            "purge": OP_D_PURGE, "inval": OP_D_INVAL})
        self._wrap_cache(patches, machine.icache, {
            "run_r": OP_I_READ_RUN, "run_w": OP_I_WRITE_RUN,
            "page_r": OP_I_READ_PAGE, "page_w": OP_I_WRITE_PAGE,
            "page_z": OP_I_ZERO_PAGE, "flush": OP_I_FLUSH,
            "purge": OP_I_PURGE, "inval": OP_I_INVAL})

        memory = machine.memory
        page_size = memory.page_size
        mem_emitters = {
            "write_word": lambda pa, value: (
                self._emit(OP_MEM_WRITE, va=pa, length=1),
                self._values.append(int(np.uint64(value)))),
            "write_words": lambda pa, values: (
                self._emit(OP_MEM_WRITE, va=pa, length=len(values)),
                self._values.append(np.array(values, dtype=np.uint64))),
            "write_page": lambda ppage, values: (
                self._emit(OP_MEM_WRITE, va=ppage * page_size,
                           length=len(values)),
                self._values.append(np.array(values, dtype=np.uint64))),
        }
        for name in _MEMORY_METHODS:
            self._wrap(patches, memory, name, mem_emitters[name])

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
        self._emit(OP_BUS, aux=self._sidecar_ref(entry, key))

    # ---- assembly -------------------------------------------------------------

    def finish(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Emit the trailing drift SYNC and build the final arrays."""
        self._pre_op()
        ops = np.array(self._ops, dtype=OP_DTYPE)
        if self._values:
            parts = [np.atleast_1d(np.asarray(v, dtype=np.uint64))
                     for v in self._values]
            values = np.concatenate(parts)
        else:
            values = np.zeros(0, dtype=np.uint64)
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
    (:data:`~repro.trace.format.UNENCODED_SCALARS`), or that changes one
    of the six ``Counter`` fields other than through ``Counters.record_*``
    (which the recorder wraps to place that change), raises
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
    untallied = recorder.untallied_fields()
    if untallied:
        raise TraceFormatError(
            f"{workload.name}: {', '.join(untallied)} changed during the "
            f"recorded window other than through Counters.record_*; the "
            f"recorder could not place the change in the op stream")
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
