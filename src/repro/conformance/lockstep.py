"""The lockstep conformance engine: shadow a running kernel with the
Table 2 model.

A :class:`ConformanceMonitor` attaches to a booted kernel the way the
tracer does — pure observation, no behaviour, cost or counter changes —
but at the *hardware* boundary: every data-cache access (word, run, and
page granularity), every data-cache flush/purge, and every DMA transfer
is replayed through one :class:`~repro.core.model.ConsistencyModel` per
physical frame.  Wrapping the cache rather than the pmap callbacks means
*every* path that touches a line is observed, including the quarantine
and uncached-conversion sweeps that bypass the callback layer.

Two judgments run at every CPU/DMA access (never at flush/purge
instants, where the implementation state is legitimately mid-transition):

* **missed action** — replaying the access through the model must demand
  no consistency action: a correct implementation discharged them all
  (observed as flush/purge events) before the access reached the cache.
  One exemption mirrors optimization F: a full-page write may skip the
  purge of its stale *target* page, because the write-allocate overwrites
  every word the purge would have discarded.
* **state divergence** — the bookkeeping (Table 3, folding pending
  hardware modified bits) must agree with the model wherever disagreement
  is dangerous: a model-STALE line must be implementation-STALE (anything
  else can silently deliver stale data), and a model-DIRTY line must be
  implementation-DIRTY (anything else can skip a needed flush).  In the
  other direction the implementation may be *pessimistic* — e.g. PRESENT
  where the model says EMPTY after a flush (Figure 1 keeps ``mapped``
  set), or STALE where the model says EMPTY after a flush-instead-of-
  purge — which is sound and left alone.

A divergence raises a structured
:class:`~repro.errors.ConformanceError` carrying the observed event
prefix for replay, or is recorded when ``record_only`` is set (the chaos
harness shadows fault plans this way and attributes divergences to
injected faults afterwards).  Arc coverage is tracked against
*pre-action* states (see :mod:`repro.conformance.coverage`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.conformance.coverage import ArcCoverage
from repro.core.model import ConsistencyModel
from repro.core.page_state import PhysPageState
from repro.core.states import LineState, MemoryOp
from repro.core.variants import model_factory_for_geometry
from repro.errors import ConformanceError
from repro.obs.patch import Observer, Patches

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


#: the data-cache entry points the monitor observes, as (name, model
#: event, full-page write).  A full-page write may skip the purge of its
#: stale target page (see :meth:`ConformanceMonitor._check_access`);
#: ``write_run`` is one only when it covers exactly one aligned page,
#: which is decided per call (``None``).
_DCACHE_EVENTS = (
    ("read", MemoryOp.CPU_READ, False),
    ("write", MemoryOp.CPU_WRITE, False),
    ("read_run", MemoryOp.CPU_READ, False),
    ("write_run", MemoryOp.CPU_WRITE, None),
    ("read_page", MemoryOp.CPU_READ, False),
    ("write_page", MemoryOp.CPU_WRITE, True),
    ("zero_page", MemoryOp.CPU_WRITE, True),
    ("flush_page_frame", MemoryOp.FLUSH, False),
    ("purge_page_frame", MemoryOp.PURGE, False),
)


def _wrap_dma(patches: Patches, dma, observe) -> None:
    """Wrap both DMA directions to call ``observe(op, frame)`` before the
    transfer."""
    for name, op in (("dma_read", MemoryOp.DMA_READ),
                     ("dma_write", MemoryOp.DMA_WRITE)):
        def make(orig, op=op):
            def observed(ppage, *rest):
                observe(op, ppage)
                return orig(ppage, *rest)
            return observed
        patches.wrap(dma, name, make)


@dataclass(frozen=True)
class ObservedEvent:
    """One event the monitor replayed through the model."""

    seq: int
    cycles: int
    op: MemoryOp
    frame: int
    cache_page: int | None     # None for DMA transfers

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = (f"frame {self.frame}" if self.cache_page is None
                 else f"frame {self.frame} cache page {self.cache_page}")
        return f"#{self.seq} [{self.cycles}] {self.op} {where}"


@dataclass
class Divergence:
    """One disagreement between the simulator and the model."""

    seq: int
    kind: str                  # "missed-action" | "state-divergence"
    frame: int
    cache_page: int | None
    detail: str
    cpu: int | None = None     # which CPU's monitor observed it (SMP only)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"event #{self.seq}: "
                + (f"cpu{self.cpu}: " if self.cpu is not None else "")
                + f"{self.kind} on frame {self.frame}"
                + (f" cache page {self.cache_page}"
                   if self.cache_page is not None else "")
                + f": {self.detail}")


def effective_decode(state: PhysPageState, cache_page: int) -> LineState:
    """Table 3 decoding with pending hardware modified bits folded in.

    An unfaulted store through a writable mapping sets the mapping's
    modified bit; ``sync_modified`` folds it into ``cache_dirty`` at the
    next policy entry (Section 4.1).  Between the two the line is already
    physically dirty, so the conformance comparison treats it as DIRTY.
    """
    if state.stale[cache_page]:
        return LineState.STALE
    for mapping in state.mappings:
        if mapping.modified and state.cache_page_of(mapping.vpage) == cache_page:
            return LineState.DIRTY
    return state.decode(cache_page)


@dataclass
class ConformanceSummary:
    """What one shadowed run exercised (for stats/experiments reporting)."""

    events: int
    frames: int
    divergences: int
    coverage_percent: float
    uncovered: list = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = ("no divergences" if not self.divergences
                   else f"{self.divergences} DIVERGENCES")
        return (f"{self.events} events over {self.frames} frames, {verdict}, "
                f"arc coverage {self.coverage_percent:.1f}%")


class ConformanceMonitor(Observer):
    """Attachable lockstep differential oracle for one kernel.

    Args:
        kernel: the booted kernel to shadow.  Attaching after boot is
            sound: the model starts all-EMPTY, which demands nothing and
            forbids nothing, so pre-attach history can only *hide*
            obligations, never invent them.
        record_only: collect divergences instead of raising on the first.
        max_events: bound the replay log (a deque keeps the most recent
            events for the error prefix); None keeps everything.
        cache: the cache object to wrap; defaults to ``machine.dcache``.
            :class:`SmpConformanceMonitor` passes each per-CPU cache of a
            cluster here, one monitor per CPU.
        cpu: CPU number for divergence attribution (None on a
            uniprocessor).
        wrap_dma: also wrap the DMA engine.  Per-CPU monitors set this
            False; the composite wraps DMA once and broadcasts.
        coverage: a shared :class:`ArcCoverage` to record into (per-CPU
            monitors share one); None builds a private instance.
        model_factory: ``factory(num_cache_pages) -> model`` building the
            per-frame shadow model.  None derives the factory from the
            wrapped cache's geometry
            (:func:`repro.core.variants.model_factory_for_geometry`), so
            each hierarchy configuration is checked against *its* derived
            Table 2 — the canonical model for any write-back virtually
            indexed cache (whatever its associativity or lower levels),
            the write-through and physically-indexed derivations for
            those variants.
    """

    def __init__(self, kernel: "Kernel", record_only: bool = False,
                 max_events: int | None = 4096, *,
                 cache=None, cpu: int | None = None, wrap_dma: bool = True,
                 coverage: ArcCoverage | None = None, model_factory=None):
        self.kernel = kernel
        self.machine = kernel.machine
        self.cache = cache if cache is not None else self.machine.dcache
        self.cpu = cpu
        self.wrap_dma = wrap_dma
        self.page_size = self.machine.page_size
        self.words_per_page = self.machine.memory.words_per_page
        self.ncp = self.cache.geo.num_cache_pages
        self.record_only = record_only
        self.model_factory = (model_factory if model_factory is not None
                              else model_factory_for_geometry(self.cache.geo))
        self.models: dict[int, ConsistencyModel] = {}
        self.coverage = coverage if coverage is not None else ArcCoverage()
        self.events: deque[ObservedEvent] = deque(maxlen=max_events)
        self.events_seen = 0
        self.divergences: list[Divergence] = []
        # Pre-action state snapshots: frame -> model states at the first
        # flush/purge observed since the frame's last access (coverage
        # attributes access arcs to the state *before* its actions).
        self._pre_action: dict[int, list[LineState]] = {}
        # One divergence per (frame, kind): a lost flush would otherwise
        # re-report at every subsequent access of the frame.
        self._reported: set[tuple[int, str]] = set()

    # ---- attachment ------------------------------------------------------------

    def _install(self, patches: Patches) -> None:
        for name, op, full_page in _DCACHE_EVENTS:
            patches.wrap(self.cache, name, self._dcache_wrapper(op, full_page))
        if self.wrap_dma:
            _wrap_dma(patches, self.machine.dma, self._on_dma)

    def _dcache_wrapper(self, op: MemoryOp, full_page: bool | None):
        """The wrapper factory for one data-cache entry point."""
        if op.is_cache_op:
            on_cache_op = self._on_cache_op

            def make(orig):
                def observed(cache_page, pa_page_base, reason):
                    on_cache_op(op, cache_page, pa_page_base)
                    return orig(cache_page, pa_page_base, reason)
                return observed
            return make

        on_access = self._on_access
        if full_page is None:
            page_size, words_per_page = self.page_size, self.words_per_page

            def make(orig):
                def observed(vaddr, paddr, values):
                    on_access(op, vaddr, paddr,
                              full_page=(paddr % page_size == 0
                                         and len(values) == words_per_page))
                    return orig(vaddr, paddr, values)
                return observed
            return make

        def make(orig):
            def observed(vaddr, paddr, *rest):
                on_access(op, vaddr, paddr, full_page)
                return orig(vaddr, paddr, *rest)
            return observed
        return make

    # ---- model plumbing ---------------------------------------------------------

    def model_of(self, frame: int) -> ConsistencyModel:
        model = self.models.get(frame)
        if model is None:
            model = self.model_factory(self.ncp)
            self.models[frame] = model
        return model

    def _log(self, op: MemoryOp, frame: int,
             cache_page: int | None) -> int:
        seq = self.events_seen
        self.events.append(ObservedEvent(seq, self.machine.clock.cycles,
                                         op, frame, cache_page))
        self.events_seen += 1
        return seq

    # ---- observations -----------------------------------------------------------

    def _on_cache_op(self, op: MemoryOp, cache_page: int,
                     pa_page_base: int) -> None:
        frame = pa_page_base // self.page_size
        model = self.model_of(frame)
        if frame not in self._pre_action:
            self._pre_action[frame] = list(model.states)
        self.coverage.record_event(op, model.states, cache_page)
        model.apply(op, cache_page)
        self._log(op, frame, cache_page)

    def _on_dma(self, op: MemoryOp, frame: int) -> None:
        self._check_access(op, frame, None, full_page=False)

    def observe_dma(self, op: MemoryOp, frame: int) -> None:
        """Feed a DMA transfer observed elsewhere into this monitor's
        models (the SMP composite wraps DMA once and broadcasts here)."""
        self._on_dma(op, frame)

    def _on_access(self, op: MemoryOp, vaddr: int, paddr: int,
                   full_page: bool = False) -> None:
        frame = paddr // self.page_size
        cache_page = self.cache.cache_page_of(vaddr, paddr)
        self._check_access(op, frame, cache_page, full_page)

    def _check_access(self, op: MemoryOp, frame: int,
                      cache_page: int | None, full_page: bool) -> None:
        model = self.model_of(frame)
        pre = self._pre_action.pop(frame, None)
        if pre is None:
            pre = list(model.states)
        required = model.apply(op, cache_page)
        self.coverage.record_event(op, pre, cache_page)
        seq = self._log(op, frame, cache_page)

        missing = [a for a in required
                   if not (full_page and op is MemoryOp.CPU_WRITE
                           and a.cache_page == cache_page)]
        if missing:
            # A policy with better information than the Table 2 model
            # (the reverse-lookup table) may have proven an action
            # unnecessary; the model transitioned as-if-performed either
            # way, so a fully waived miss leaves both sides agreeing and
            # only the state comparison remains.  The default policy
            # waives nothing.
            cpolicy = getattr(self.kernel, "cpolicy", None)
            if cpolicy is not None and all(
                    cpolicy.waives_missed_action(self.kernel, self.cache,
                                                 frame, a)
                    for a in missing):
                self._check_states(seq, frame, model)
                return
            self._diverge(seq, "missed-action", frame, cache_page,
                          f"{op} proceeded although the model still "
                          f"requires {', '.join(map(str, missing))}")
            return
        self._check_states(seq, frame, model)

    def _check_states(self, seq: int, frame: int,
                      model: ConsistencyModel) -> None:
        """The dangerous-direction state comparison (model S => impl S,
        model D => impl effective-D); only model-S/D lines can disagree
        dangerously, so only those are compared."""
        state = self.kernel.pmap.page_states.get(frame)
        if state is None or state.uncached:
            return  # no bookkeeping to compare (quarantined / uncached)
        for c, model_state in enumerate(model.states):
            if model_state is LineState.PRESENT or model_state is LineState.EMPTY:
                continue
            impl = effective_decode(state, c)
            if impl is not model_state:
                self._diverge(
                    seq, "state-divergence", frame, c,
                    f"model says {model_state.name} but the implementation "
                    f"decodes {impl.name} (mapped={state.mapped[c]}, "
                    f"stale={state.stale[c]}, dirty={state.cache_dirty})")
                return

    def _diverge(self, seq: int, kind: str, frame: int,
                 cache_page: int | None, detail: str) -> None:
        key = (frame, kind)
        if key in self._reported:
            return
        self._reported.add(key)
        divergence = Divergence(seq, kind, frame, cache_page, detail,
                                cpu=self.cpu)
        self.divergences.append(divergence)
        bus = self.machine.bus
        if bus is not None and bus.enabled:
            bus.publish("divergence", divergence=kind, frame=frame,
                        cache_page=cache_page, detail=detail, cpu=self.cpu)
        if self.record_only:
            return
        where = f"cpu{self.cpu}: " if self.cpu is not None else ""
        raise ConformanceError(
            f"lockstep divergence: {where}{detail} "
            f"(replay prefix: {len(self.events)} of {self.events_seen} "
            f"events retained)",
            kind=kind, frame=frame, cache_page=cache_page, event_index=seq,
            cpu=self.cpu, prefix=tuple(self.events))

    # ---- reporting -------------------------------------------------------------

    def summary(self) -> ConformanceSummary:
        return ConformanceSummary(
            events=self.events_seen, frames=len(self.models),
            divergences=len(self.divergences),
            coverage_percent=self.coverage.percent,
            uncovered=self.coverage.uncovered())

    @property
    def ok(self) -> bool:
        return not self.divergences


class SmpConformanceMonitor(Observer):
    """Per-CPU lockstep over a :class:`~repro.hw.smp.CoherentCluster`.

    One :class:`ConformanceMonitor` shadows each CPU's data cache,
    sharing a single :class:`ArcCoverage` (the Table 2 arcs are
    CPU-agnostic, so the union is the meaningful coverage number).
    Cluster-wide management operations are observed per CPU naturally —
    the cluster's flush/purge loops call each wrapped cache — while DMA
    is wrapped once here and broadcast to every monitor, since a device
    transfer changes the frame's standing for every CPU at once.

    Soundness of the per-CPU projection: each CPU's model sees that
    CPU's accesses plus all management and DMA traffic, so it demands a
    subset of what a whole-machine model would — no false missed-action
    reports — and the dangerous-direction state checks compare against
    the shared (CPU-agnostic) pmap bookkeeping exactly as on one CPU.
    Divergences carry the observing CPU (:attr:`Divergence.cpu`).
    """

    def __init__(self, kernel: "Kernel", record_only: bool = False,
                 max_events: int | None = 4096):
        cluster = kernel.machine.cluster
        if cluster is None:
            raise ConformanceError(
                "SmpConformanceMonitor needs a multi-CPU machine; "
                "use ConformanceMonitor on a uniprocessor")
        self.kernel = kernel
        self.machine = kernel.machine
        self.record_only = record_only
        self.coverage = ArcCoverage()
        self.monitors = [
            ConformanceMonitor(kernel, record_only=record_only,
                               max_events=max_events, cache=cache, cpu=i,
                               wrap_dma=False, coverage=self.coverage)
            for i, cache in enumerate(cluster.caches)
        ]

    def _install(self, patches: Patches) -> None:
        for monitor in self.monitors:
            monitor._install(patches)
        _wrap_dma(patches, self.machine.dma, self._broadcast_dma)

    def _broadcast_dma(self, op: MemoryOp, frame: int) -> None:
        for monitor in self.monitors:
            monitor.observe_dma(op, frame)

    # ---- aggregated reporting -----------------------------------------------

    @property
    def events_seen(self) -> int:
        return sum(m.events_seen for m in self.monitors)

    @property
    def divergences(self) -> list[Divergence]:
        out = [d for m in self.monitors for d in m.divergences]
        out.sort(key=lambda d: (d.seq, d.cpu if d.cpu is not None else -1))
        return out

    def per_cpu_divergences(self) -> dict[int, int]:
        return {m.cpu: len(m.divergences) for m in self.monitors}

    def summary(self) -> ConformanceSummary:
        frames = set()
        for monitor in self.monitors:
            frames.update(monitor.models)
        return ConformanceSummary(
            events=self.events_seen, frames=len(frames),
            divergences=len(self.divergences),
            coverage_percent=self.coverage.percent,
            uncovered=self.coverage.uncovered())

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.monitors)
