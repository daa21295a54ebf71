"""Event tracing: observe the consistency machinery at work.

A :class:`Tracer` instruments a booted kernel and records every
consistency-relevant event — flushes and purges (with cache page, frame
and reason), faults (with classification), DMA transfers, page
preparations and swaps — as a structured, ordered trace.  Uses:

* debugging a policy ("why was this page flushed twice?"),
* workload characterization (the per-reason breakdowns of Section 5.1),
* regression artifacts (dump a golden trace, diff against it),
* teaching — the examples print trace excerpts to show the machinery.

The tracer is pure observation: it wraps the pmap's callback layer and
the fault dispatcher without changing any behaviour, costs, or counters,
and can be detached again.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.stats import FaultKind
from repro.obs.events import Event
from repro.obs.patch import Observer, Patches

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Tracer(Observer):
    """Attachable event recorder for one kernel."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.events: list[Event] = []
        self._seq = 0

    def _install(self, patches: Patches) -> None:
        kernel = self.kernel
        machine = kernel.machine
        record = self._record

        def cache_op(kind):
            def make(original):
                def traced(cache_page, ppage, reason):
                    record(kind, cache_page=cache_page, frame=ppage,
                           reason=str(reason))
                    original(cache_page, ppage, reason)
                return traced
            return make

        def dma(kind):
            def make(original):
                def traced(ppage, *rest):
                    record(kind, frame=ppage)
                    return original(ppage, *rest)
                return traced
            return make

        def fault(handle_fault):
            def traced(info):
                vpage = info.vaddr // machine.page_size
                before = dict(machine.counters.faults)
                handle_fault(info)
                after = machine.counters.faults
                kind = next((k for k in FaultKind
                             if after[k] > before.get(k, 0)), None)
                record("fault", asid=info.asid, vpage=vpage,
                       access=info.access.value,
                       classified=str(kind) if kind else "retried")
            return traced

        pmap = kernel.pmap
        # the engine and the machine hold bound references; repoint them
        patches.set(pmap.engine, "_flush", patches.wrap(
            pmap, "_flush_cache_page", cache_op("flush")))
        patches.set(pmap.engine, "_purge", patches.wrap(
            pmap, "_purge_cache_page", cache_op("purge")))
        patches.set(machine, "fault_handler", patches.wrap(
            kernel, "handle_fault", fault))
        patches.wrap(machine.dma, "dma_write", dma("dma-write"))
        patches.wrap(machine.dma, "dma_read", dma("dma-read"))

    # ---- recording -----------------------------------------------------------------

    def _record(self, kind: str, **detail) -> None:
        self.events.append(Event(self._seq, self.kernel.machine.clock.cycles,
                                 kind, detail))
        self._seq += 1

    # ---- consumption -----------------------------------------------------------------

    def filter(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> dict[str, int]:
        """Event counts by kind (and by reason for cache operations)."""
        counts: Counter = Counter()
        for event in self.events:
            counts[event.kind] += 1
            reason = event.detail.get("reason")
            if reason:
                counts[f"{event.kind}:{reason}"] += 1
        return dict(counts)


@dataclass(frozen=True)
class TraceDiff:
    """The first point where two traces disagree (None == identical)."""

    index: int                 # first diverging event index
    expected: dict | None      # golden event at that index (None: ran long)
    actual: dict | None        # recorded event at that index (None: ran short)

    def render(self) -> str:
        def fmt(event):
            if event is None:
                return "<trace ends>"
            detail = {k: v for k, v in sorted(event.items())
                      if k not in ("seq", "cycles")}
            return (f"[{event.get('cycles', '?'):>10}] "
                    + " ".join(f"{k}={v}" for k, v in detail.items()))
        return (f"first divergence at event {self.index}\n"
                f"  expected: {fmt(self.expected)}\n"
                f"  actual:   {fmt(self.actual)}")


def _normalize(event) -> dict:
    """Canonical comparison form: an Event or a loaded dict both reduce
    to the same sorted-key dict (the to_json round trip)."""
    if isinstance(event, Event):
        return json.loads(event.to_json())
    return dict(event)


def diff_traces(expected, actual) -> TraceDiff | None:
    """Compare two traces event by event; each side may be a list of
    :class:`~repro.obs.events.Event` or of dicts (as loaded from a golden
    ``.jsonl``).
    Returns the first divergence, or None when the traces are identical
    — including in length."""
    for i, (want, got) in enumerate(zip(expected, actual)):
        want, got = _normalize(want), _normalize(got)
        if want != got:
            return TraceDiff(i, want, got)
    if len(expected) != len(actual):
        i = min(len(expected), len(actual))
        want = _normalize(expected[i]) if i < len(expected) else None
        got = _normalize(actual[i]) if i < len(actual) else None
        return TraceDiff(i, want, got)
    return None
