"""The structured event bus: one stream for everything the system does.

Every layer of the simulator publishes into a single
:class:`EventBus` owned by the machine: the caches (flushes and purges,
with the frame, cache page, reason, and cycle cost), the TLB (parity
recoveries), the DMA engine (transfers and transfer faults), the disk
(retries), the kernel's fault dispatcher (faults with their Section 5.1
classification), the fault injector (every delivered injection), and the
lockstep conformance monitor (every divergence).  A trace of a run is
therefore *attributable*: an oracle violation, a divergence, or a cycle
spike can be lined up against the exact sequence of operations — on the
simulated clock — that led to it.

Design constraints (the PR-1 batched hot path must keep its speedup):

* **off by default** — publishers guard with ``if bus is not None and
  bus.enabled``, so a disabled bus costs the hot paths one attribute
  check and nothing else (and the word/block access paths publish no
  events at all — only management operations do);
* **ring-buffered** — the in-memory log is a bounded deque, so an
  arbitrarily long run keeps the most recent events instead of growing
  without bound;
* **subscribable** — callbacks see every event as it happens (the CLI's
  ``run --trace-events`` subscribes a JSONL writer; tests subscribe
  asserting lambdas), independent of the ring's retention.

Event vocabulary (the ``kind`` field):

=======================  ====================================================
``flush`` / ``purge``     a cache-page management operation
                          (``cache``, ``cache_page``, ``frame``, ``reason``,
                          ``resident``, ``cost_cycles``)
``fault``                 the kernel's fault dispatcher ran
                          (``asid``, ``vpage``, ``access``, ``classified``)
``dma-read``/``dma-write``  a DMA transfer completed (``frame``)
``dma-fault``             a transfer failed verification
                          (``frame``, ``direction``, ``fault``)
``disk-retry``            a transient device fault was absorbed
                          (``op``, ``file_id``, ``page``, ``attempt``)
``tlb-parity-recovery``   a corrupted TLB entry was refilled
                          (``asid``, ``vpage``)
``injection``             the fault injector delivered a fault
                          (``point``, ``injection_seq``, plus point detail)
``divergence``            the lockstep shadow disagreed with the model
                          (``divergence``, ``frame``, ``cache_page``,
                          ``detail``)
=======================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections import Counter, deque
from typing import Callable

from repro.errors import open_input
from repro.hw.stats import Clock

#: default ring capacity; enough for the interesting tail of a long run
#: without letting a paper-scale trace dominate memory.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class Event:
    """One published event, stamped with the simulated clock."""

    seq: int
    cycles: int
    kind: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"seq": self.seq, "cycles": self.cycles,
                           "kind": self.kind, **self.detail},
                          sort_keys=True, default=str)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.cycles:>10}] {self.kind:<12} {detail}"


class EventBus:
    """Ring-buffered, subscribable event stream, disabled by default.

    One instance is shared by the whole machine (and the kernel built on
    it); ``enable()`` turns publication on for a run, ``events()``
    returns the retained ring, and subscribers observe everything
    published while they are attached regardless of ring retention.
    """

    __slots__ = ("clock", "enabled", "seq", "published", "tap", "_ring",
                 "_subscribers")

    def __init__(self, clock: Clock, capacity: int = DEFAULT_CAPACITY):
        self.clock = clock
        self.enabled = False
        self.seq = 0              # next sequence number
        self.published = 0        # total events ever published
        # Pre-publication hook: called as ``tap(kind, detail)`` before the
        # event is stamped, only while enabled.  The trace recorder uses
        # it to observe publishes without wrapping the (slotted) bus.
        self.tap: Callable[[str, dict], None] | None = None
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._subscribers: list[Callable[[Event], None]] = []

    # ---- lifecycle ---------------------------------------------------------

    def enable(self, capacity: int | None = None) -> "EventBus":
        if capacity is not None and capacity != self._ring.maxlen:
            self._ring = deque(self._ring, maxlen=capacity)
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._ring.clear()

    # ---- subscription ------------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None]) -> Callable:
        """Attach ``callback`` to every future event; returns it (so the
        caller can later :meth:`unsubscribe` the same object)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    # ---- publication -------------------------------------------------------

    def publish(self, kind: str, **detail) -> Event | None:
        """Publish one event (no-op while disabled).

        Publishers on warm paths should guard with ``bus.enabled`` before
        building the detail kwargs, keeping the disabled path to a single
        attribute check.
        """
        if not self.enabled:
            return None
        if self.tap is not None:
            self.tap(kind, detail)
        event = Event(self.seq, self.clock.cycles, kind, detail)
        self.seq += 1
        self.published += 1
        self._ring.append(event)
        for callback in self._subscribers:
            callback(event)
        return event

    # ---- consumption -------------------------------------------------------

    def events(self, kind: str | None = None) -> list[Event]:
        """The retained ring (optionally filtered by ``kind``), oldest
        first."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    def summary(self) -> dict[str, int]:
        """Retained event counts by kind."""
        return dict(Counter(e.kind for e in self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (f"EventBus({state}, retained={len(self._ring)}, "
                f"published={self.published})")


def write_jsonl(events, path) -> int:
    """Write events (any iterable of :class:`Event`) as JSON lines;
    returns the event count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            handle.write(event.to_json() + "\n")
            count += 1
    return count


def load_jsonl(path) -> list[dict]:
    with open_input(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
