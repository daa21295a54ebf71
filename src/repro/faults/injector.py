"""The deterministic fault injector.

A :class:`FaultInjector` owns a seeded RNG and a :class:`FaultPlan` — a
set of :class:`FaultRule` entries, each naming one *injection point* from
the catalog below.  Components that host an injection point hold an
optional ``injector`` attribute (``None`` by default, so the hot path
costs one identity check) and ask :meth:`FaultInjector.fires` whether the
fault materializes this time.  Every firing appends an
:class:`InjectionRecord` to the audit trail with the simulated-clock
timestamp, so a chaos run can be replayed and every consequence
attributed.

Injection-point catalog (``detail`` keys each point records):

====================== ==================================================
``pmap.flush.drop``     a cache-page flush silently does nothing
                        (``ppage``, ``cache_page``)
``pmap.flush.duplicate``a flush runs twice (idempotency witness)
``pmap.purge.drop``     a cache-page purge silently does nothing
``pmap.purge.duplicate``a purge runs twice
``pmap.dma_read_prep.skip``   ``prepare_dma_read`` returns without
                        flushing (``ppage``)
``pmap.dma_write_prep.skip``  ``prepare_dma_write`` returns without
                        purging (``ppage``)
``dma.transfer.corrupt``a DMA transfer is corrupted on the wire and the
                        device's completion status reports it (``ppage``,
                        ``direction``)
``dma.transfer.partial``only a prefix of the page is transferred
                        (``ppage``, ``direction``, ``words``)
``disk.read.transient`` a disk read fails at the device (``file_id``,
                        ``page``, ``ppage``)
``disk.write.transient``a disk write fails at the device
``disk.read.missing``   a platter block has vanished (terminal)
``tlb.entry.corrupt``   a TLB entry is corrupted; parity catches it
                        (``asid``, ``vpage``)
``kernel.fault.stall``  the fault handler makes no progress once
                        (``asid``, ``vaddr``)
``smp.snoop.invalidate.drop``  a store's invalidation snoop never
                        reaches a resident peer copy (``ppage``, ``cpu``,
                        ``victim``)
``smp.snoop.writeback.stale``  a read snoop finds a dirty peer copy but
                        the write-back is lost: the reader fills from
                        stale memory (``ppage``, ``cpu``, ``victim``)
``smp.snoop.writeback.lost``  an invalidation snoop drops a dirty peer
                        copy *without* writing it back (``ppage``,
                        ``cpu``, ``victim``)
``smp.snoop.invalidate.misroute``  the invalidation is delivered to the
                        wrong equivalent line — one cache page over — so
                        the intended copy survives (``ppage``, ``cpu``,
                        ``victim``)
====================== ==================================================

Determinism: decisions are drawn from ``random.Random(plan.seed)`` in
simulation order, and rule activation windows are expressed in simulated
clock cycles.  Nothing reads wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hw.stats import Clock

# ---- the catalog -----------------------------------------------------------

#: injections that attack the consistency algorithm itself; the chaos
#: invariant is that each is oracle-detected or provably harmless
CONSISTENCY_POINTS = frozenset({
    "pmap.flush.drop", "pmap.flush.duplicate",
    "pmap.purge.drop", "pmap.purge.duplicate",
    "pmap.dma_read_prep.skip", "pmap.dma_write_prep.skip",
    "smp.snoop.invalidate.drop", "smp.snoop.writeback.stale",
    "smp.snoop.writeback.lost", "smp.snoop.invalidate.misroute",
})

#: the subset of consistency injections that can leave memory, cache, or
#: bookkeeping divergent (duplicates are pure idempotency witnesses)
DIVERGENCE_POINTS = frozenset({
    "pmap.flush.drop", "pmap.purge.drop",
    "pmap.dma_read_prep.skip", "pmap.dma_write_prep.skip",
    "smp.snoop.invalidate.drop", "smp.snoop.writeback.stale",
    "smp.snoop.writeback.lost", "smp.snoop.invalidate.misroute",
})

#: snoop-race injections: only consulted on a multiprocessor, and only
#: when a peer copy makes the race observable (so every firing is
#: consequential by construction)
SNOOP_POINTS = frozenset({
    "smp.snoop.invalidate.drop", "smp.snoop.writeback.stale",
    "smp.snoop.writeback.lost", "smp.snoop.invalidate.misroute",
})

#: injections absorbed by an explicit recovery path (retry, parity refill,
#: fault-loop retry); final state must be correct when the budget holds
RECOVERABLE_POINTS = frozenset({
    "dma.transfer.corrupt", "dma.transfer.partial",
    "disk.read.transient", "disk.write.transient",
    "tlb.entry.corrupt", "kernel.fault.stall",
})

#: terminal device failures: always detected, never recovered
TERMINAL_POINTS = frozenset({"disk.read.missing"})

ALL_POINTS = CONSISTENCY_POINTS | RECOVERABLE_POINTS | TERMINAL_POINTS

#: one-line description per point, for ``--list-points`` (kept in lockstep
#: with ALL_POINTS by an assertion test)
POINT_DESCRIPTIONS = {
    "pmap.flush.drop": "a cache-page flush silently does nothing",
    "pmap.flush.duplicate": "a flush runs twice (idempotency witness)",
    "pmap.purge.drop": "a cache-page purge silently does nothing",
    "pmap.purge.duplicate": "a purge runs twice (idempotency witness)",
    "pmap.dma_read_prep.skip": "prepare_dma_read returns without flushing",
    "pmap.dma_write_prep.skip": "prepare_dma_write returns without purging",
    "dma.transfer.corrupt": "a DMA transfer is corrupted on the wire "
                            "(device status reports it)",
    "dma.transfer.partial": "only a prefix of the page is transferred",
    "disk.read.transient": "a disk read fails at the device (retryable)",
    "disk.write.transient": "a disk write fails at the device (retryable)",
    "disk.read.missing": "a platter block has vanished (terminal)",
    "tlb.entry.corrupt": "a TLB entry is corrupted; parity catches it",
    "kernel.fault.stall": "the fault handler makes no progress once",
    "smp.snoop.invalidate.drop": "a store's invalidation snoop never "
                                 "reaches a resident peer copy",
    "smp.snoop.writeback.stale": "a read snoop loses the dirty peer "
                                 "write-back; the reader fills stale memory",
    "smp.snoop.writeback.lost": "an invalidation drops a dirty peer copy "
                                "without writing it back",
    "smp.snoop.invalidate.misroute": "the invalidation hits the wrong "
                                     "equivalent line; the real copy "
                                     "survives",
}


def classify_point(point: str) -> str:
    """The catalog class of a point, for display and reporting."""
    if point in SNOOP_POINTS:
        return "snoop-race"
    if point in CONSISTENCY_POINTS:
        return "consistency"
    if point in RECOVERABLE_POINTS:
        return "recoverable"
    if point in TERMINAL_POINTS:
        return "terminal"
    raise ConfigurationError(f"unknown injection point {point!r}")


# ---- plans -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault source.

    Args:
        point: injection-point name (must be in :data:`ALL_POINTS`).
        rate: probability the fault fires per opportunity.
        max_fires: cap on rate-triggered firings (burst continuations are
            not counted against it), None for unlimited.
        burst: consecutive opportunities that fail once triggered — e.g.
            ``burst=2`` on a disk transient makes the first retry fail too.
        start_cycles / stop_cycles: activation window on the simulated
            clock (half-open; ``stop_cycles=None`` means never stops).
    """

    point: str
    rate: float = 1.0
    max_fires: int | None = None
    burst: int = 1
    start_cycles: int = 0
    stop_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.point not in ALL_POINTS:
            raise ConfigurationError(
                f"unknown injection point {self.point!r}; "
                f"known: {sorted(ALL_POINTS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {self.rate}")
        if self.burst < 1:
            raise ConfigurationError("burst must be at least 1")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules drawn against it."""

    seed: int
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"point[:rate[:burst]],point..."`` into a plan.

        Example: ``"disk.read.transient:0.1:2,pmap.flush.drop:0.05"``.
        A bare point name means ``rate=1.0``.  Any malformed item — an
        unknown point, a rate that is not a number in [0, 1], a burst
        that is not a positive integer, or a fourth field — raises
        :class:`ConfigurationError`.
        """
        rules = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            point, *fields = item.split(":")
            if len(fields) > 2:
                raise ConfigurationError(
                    f"fault plan item {item!r} has more than "
                    f"point:rate:burst")
            try:
                rate = float(fields[0]) if fields else 1.0
                burst = int(fields[1]) if len(fields) > 1 else 1
            except ValueError:
                raise ConfigurationError(
                    f"fault plan item {item!r}: the rate must be a number "
                    f"and the burst an integer") from None
            rules.append(FaultRule(point, rate=rate, burst=burst))
        if not rules:
            raise ConfigurationError(f"empty fault plan spec {spec!r}")
        return cls(seed=seed, rules=tuple(rules))


# ---- audit trail -----------------------------------------------------------


@dataclass
class InjectionRecord:
    """One fault the injector actually delivered."""

    seq: int                    # position in the audit trail
    point: str
    cycles: int                 # simulated clock at injection
    detail: dict = field(default_factory=dict)
    #: for divergence points: did the omission matter at injection time?
    #: (e.g. a dropped flush of an already-clean frame is harmless)
    consequential: bool | None = None
    #: how the system disposed of the fault: "recovered" (a retry or
    #: refill absorbed it), "detected" (a typed error propagated),
    #: "raised" (a transient error is in flight), "harmless" (provably
    #: no observable effect), or None for latent consistency faults whose
    #: disposition the harness settles at end of run
    resolution: str | None = None

    @property
    def ppage(self) -> int | None:
        return self.detail.get("ppage")

    def resolve(self, resolution: str) -> None:
        self.resolution = resolution

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        tail = f" -> {self.resolution}" if self.resolution else ""
        return f"#{self.seq} @{self.cycles} {self.point}({extra}){tail}"


class _RuleState:
    __slots__ = ("fires", "pending_burst")

    def __init__(self) -> None:
        self.fires = 0
        self.pending_burst = 0


# ---- the injector ----------------------------------------------------------


class FaultInjector:
    """Seeded, clock-scheduled fault source shared by the whole stack.

    The injector is *attached* to components (each gains an ``injector``
    attribute); detached components never pay more than a None check.
    ``enabled`` gates all points at once so a harness can scope injection
    to the measured phase (setup and end-of-run verification run clean).
    """

    def __init__(self, plan: FaultPlan, clock: Clock):
        self.plan = plan
        self.clock = clock
        self.rng = random.Random(plan.seed)
        self.enabled = True
        self.audit: list[InjectionRecord] = []
        # Observability: attach_kernel/attach pick up the machine's
        # EventBus so every delivered injection doubles as a trace event.
        self.bus = None
        self._rules_by_point: dict[str, list[tuple[FaultRule, _RuleState]]] = {}
        for rule in plan.rules:
            self._rules_by_point.setdefault(rule.point, []).append(
                (rule, _RuleState()))

    # ---- wiring ------------------------------------------------------------

    def attach_kernel(self, kernel) -> "FaultInjector":
        """Wire the injector into every injection point of a booted kernel."""
        kernel.fault_injector = self
        kernel.pmap.injector = self
        kernel.disk.injector = self
        kernel.machine.dma.injector = self
        kernel.machine.tlb.injector = self
        if kernel.machine.config.n_cpus > 1:
            kernel.machine.dcache.injector = self
        self.bus = kernel.machine.bus
        return self

    # ---- scoping -----------------------------------------------------------

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    class _Paused:
        def __init__(self, injector: "FaultInjector"):
            self.injector = injector

        def __enter__(self):
            self.injector.enabled = False
            return self.injector

        def __exit__(self, *exc):
            self.injector.enabled = True
            return False

    def paused(self) -> "_Paused":
        """Context manager: suppress all injection inside the block."""
        return self._Paused(self)

    # ---- the decision ------------------------------------------------------

    def fires(self, point: str, **detail) -> InjectionRecord | None:
        """Decide whether ``point`` faults at this opportunity.

        Returns the audit record when the fault fires (the caller then
        *delivers* the fault — skips the operation, corrupts the data,
        raises the typed error) or None when the operation proceeds
        normally.
        """
        if not self.enabled:
            return None
        entries = self._rules_by_point.get(point)
        if not entries:
            return None
        now = self.clock.cycles
        for rule, state in entries:
            if state.pending_burst > 0:
                state.pending_burst -= 1
                return self._record(point, detail)
            if rule.max_fires is not None and state.fires >= rule.max_fires:
                continue
            if now < rule.start_cycles:
                continue
            if rule.stop_cycles is not None and now >= rule.stop_cycles:
                continue
            if rule.rate >= 1.0 or self.rng.random() < rule.rate:
                state.fires += 1
                state.pending_burst = rule.burst - 1
                return self._record(point, detail)
        return None

    def _record(self, point: str, detail: dict) -> InjectionRecord:
        record = InjectionRecord(seq=len(self.audit), point=point,
                                 cycles=self.clock.cycles, detail=detail)
        self.audit.append(record)
        if self.bus is not None and self.bus.enabled:
            self.bus.publish("injection", point=point,
                             injection_seq=record.seq, **detail)
        return record

    # ---- audit helpers -----------------------------------------------------

    def records(self, *points: str) -> list[InjectionRecord]:
        wanted = set(points)
        return [r for r in self.audit if not wanted or r.point in wanted]

    def consistency_frames(self) -> set[int]:
        """Frames targeted by consistency-affecting injections — the set
        any oracle violation must be attributable to."""
        return {r.ppage for r in self.audit
                if r.point in CONSISTENCY_POINTS and r.ppage is not None}

    def fired(self, point: str) -> int:
        return sum(1 for r in self.audit if r.point == point)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultInjector(seed={self.plan.seed}, "
                f"rules={len(self.plan.rules)}, fired={len(self.audit)})")
