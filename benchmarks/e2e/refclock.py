"""Host time at a fixed reference speed.

A shared host's speed drifts: on a 2-core Intel Xeon host shared with
other tenants, a fixed Python loop runs 10-30% slower for tens of seconds
at a time, and up to twice as slow for minutes while other tenants are
busy.  Raw wall times of identical passes then spread by 20-50%, far
wider than any useful regression bound.

:class:`RefClock` measures that drift beside the work.  It times a fixed
reference loop (:meth:`RefClock.burst`, code that lives here and that no
change to the simulator touches) at *marks*: around set-up, at request
boundaries whenever 100 ms have passed since the last mark, and at the end
of the window.  Time between two marks is scaled by the host's speed
over it, the mean of the two marks' burst times against
:data:`NOMINAL_BURST_NS` (raised to :data:`SLOWDOWN_EXPONENT`), so a
reported time is the time the interval would have taken at the
reference speed.  The marks' own time is left
out of every interval.

Marks fire at time-dependent points, so they allocate neither tracked
Python objects nor numpy temporaries: either would move the
interpreter's garbage collections or the C heap's layout, and with them
the pass's peak memory, from run to run.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: the reference loop's median time on an idle 2-core Intel Xeon host;
#: a fixed constant, so scaled times stay comparable across commits.
NOMINAL_BURST_NS = 320_000
#: the simulator slows less than the reference loop under contention: as
#: the loop's slowdown raised to this power.  Fit on 94 serve passes in
#: two periods of 1.1-2.2x contention; at 1 serve-read's throughput read
#: 2-5% higher per unit of slowdown, at 0.9 within 2% either way.
SLOWDOWN_EXPONENT = 0.9
#: bursts per mark (their median is kept) and the gap that triggers one.
BURSTS_PER_MARK = 5
MARK_EVERY_NS = 100_000_000

_now = time.perf_counter_ns


class RefClock:
    """Marks of host speed along one pass, and the scaling they give."""

    def __init__(self):
        # Parallel lists, one entry per mark, in time order.
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.bursts: list[int] = []    # median burst ns of the mark
        self._table: dict = {}
        self._words = np.arange(1024, dtype=np.uint64)
        self._copy = np.empty(1024, dtype=np.uint64)
        self._pool = np.arange(256 * 1024, dtype=np.uint64)   # 2 MiB
        self._equal = np.empty(1024, dtype=bool)
        self._samples = [0] * BURSTS_PER_MARK

    def burst(self) -> int:
        """One run of the reference loop; returns its duration in ns.

        It mixes the simulator's kinds of host work: interpreter work
        (dict and int operations), short numpy slices, and whole-page
        copies and compares over a 2 MiB pool.  That mix tracks the
        simulator's slowdown better than interpreter work alone, most of
        all for the memory-heavy requests in the latency tail.
        """
        table, words, copy, pool, equal = (
            self._table, self._words, self._copy, self._pool, self._equal)
        acc = 0
        t0 = _now()
        for i in range(600):
            table[i & 255] = i
            acc += table.get(i & 127, 0)
            if not i & 7:
                s = (i * 37) & 1007
                copy[s:s + 16] = words[s:s + 16]
                np.equal(copy[s:s + 16], words[s:s + 16], out=equal[:16])
                acc += int(np.count_nonzero(equal[:16]))
            if not i & 15:
                off = ((i * 7919) & 255) * 1024
                copy[:] = pool[off:off + 1024]
                np.equal(copy, pool[off:off + 1024], out=equal)
                acc += int(equal.all())
        return _now() - t0

    def mark(self) -> None:
        t0 = _now()
        samples = self._samples
        for i in range(BURSTS_PER_MARK):
            samples[i] = self.burst()
        samples.sort()
        self.starts.append(t0)
        self.bursts.append(samples[BURSTS_PER_MARK // 2])
        self.ends.append(_now())

    def maybe_mark(self) -> None:
        """Mark if the last mark is :data:`MARK_EVERY_NS` old."""
        if _now() - self.ends[-1] >= MARK_EVERY_NS:
            self.mark()

    def _factor(self, k: int) -> float:
        """The host's slowdown between mark ``k`` and the next one."""
        after = self.bursts[min(k + 1, len(self.bursts) - 1)]
        return ((self.bursts[k] + after) / 2 / NOMINAL_BURST_NS) \
            ** SLOWDOWN_EXPONENT

    def scaled(self, a: int, b: int) -> float:
        """Reference-speed ns of the interval [a, b] (taken after the
        first mark), leaving out the marks inside it."""
        k = bisect.bisect_right(self.ends, a) - 1
        total = 0.0
        t = a
        while k + 1 < len(self.starts) and self.starts[k + 1] < b:
            total += (self.starts[k + 1] - t) / self._factor(k)
            k += 1
            t = self.ends[k]
        return total + (b - t) / self._factor(k)

    def slowdown(self) -> float:
        """The median mark's slowdown, for the run record."""
        return sorted(self.bursts)[len(self.bursts) // 2] / NOMINAL_BURST_NS
