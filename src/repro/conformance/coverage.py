"""Transition-arc coverage over Table 2.

An *arc* is one cell of Table 2: an (operation, pre-state, column) triple,
where the column is ``target`` (the cache line selected by the operation's
virtual address) or ``other`` (every similarly mapped but unaligned line).
There are 6 operations x 4 states x 2 columns = 48 arcs; a run *covers*
an arc when the model traverses that cell for some line.

Coverage uses **pre-action** states: the state a line was in just before
the event, *including* the consistency actions the event required.  A
DMA-read of a frame whose page is dirty covers (DMA-read, DIRTY) even
though the implementation flushes the page (and the lockstep model
therefore transitions it to EMPTY) before the transfer itself — the run
exercised exactly the D -(flush)-> E cell.  Without this convention the
action-requiring cells would be unreachable in any *correct* run, since
a correct implementation always discharges the action first.

Since "all cache lines that contain the physical address referenced by
the DMA operation share the same transitions" (Table 2's note), a DMA
event covers both columns for each line's state.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.states import LineState, MemoryOp
from repro.core.transitions import OTHER_TRANSITIONS, TARGET_TRANSITIONS

#: One Table 2 cell: (operation, pre-state, column).
Arc = tuple[MemoryOp, LineState, str]

TARGET, OTHER = "target", "other"

#: Every cell of Table 2 (48 arcs).
ALL_ARCS: frozenset[Arc] = frozenset(
    [(op, state, TARGET) for (op, state) in TARGET_TRANSITIONS]
    + [(op, state, OTHER) for (op, state) in OTHER_TRANSITIONS])


def arcs_of_event(op: MemoryOp, pre_states: list[LineState],
                  target: int | None) -> set[Arc]:
    """The arcs one event traverses, given the pre-action states of all
    cache lines.  ``target`` is None for DMA operations (which cover both
    columns for every line, per the Table 2 note)."""
    arcs: set[Arc] = set()
    if op.is_dma:
        for state in pre_states:
            arcs.add((op, state, TARGET))
            arcs.add((op, state, OTHER))
        return arcs
    for c, state in enumerate(pre_states):
        arcs.add((op, state, TARGET if c == target else OTHER))
    return arcs


class ArcCoverage:
    """Counts how often each Table 2 arc has been exercised."""

    def __init__(self) -> None:
        self.counts: Counter[Arc] = Counter()

    # ---- recording -------------------------------------------------------------

    def record(self, op: MemoryOp, state: LineState, column: str) -> None:
        self.counts[(op, state, column)] += 1

    def record_event(self, op: MemoryOp, pre_states: list[LineState],
                     target: int | None) -> None:
        """Record every arc one model event traverses (see
        :func:`arcs_of_event` for the column conventions)."""
        for arc in arcs_of_event(op, pre_states, target):
            self.counts[arc] += 1

    def merge(self, other: "ArcCoverage") -> "ArcCoverage":
        self.counts.update(other.counts)
        return self

    # ---- encoding ----------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe encoding (arcs as ``[op, state, column, count]``
        rows) that :meth:`from_dict` inverts exactly; the farm ships
        coverage across process boundaries so shard coverage can merge
        in the parent."""
        rows = [[op.name, state.name, column, count]
                for (op, state, column), count in self.counts.items()]
        return {"counts": sorted(rows)}

    @classmethod
    def from_dict(cls, data: dict) -> "ArcCoverage":
        coverage = cls()
        for op, state, column, count in data["counts"]:
            coverage.counts[(MemoryOp[op], LineState[state], column)] = count
        return coverage

    # ---- queries ----------------------------------------------------------------

    @property
    def covered(self) -> set[Arc]:
        return set(self.counts)

    def uncovered(self) -> list[Arc]:
        return sorted(ALL_ARCS - self.covered,
                      key=lambda a: (a[0].value, a[1].value, a[2]))

    @property
    def percent(self) -> float:
        return 100.0 * len(self.covered & ALL_ARCS) / len(ALL_ARCS)

    @property
    def complete(self) -> bool:
        return ALL_ARCS <= self.covered

    def novel_arcs(self, op: MemoryOp, pre_states: list[LineState],
                   target: int | None) -> set[Arc]:
        """Arcs the event would cover for the first time (used by the
        explorer's coverage-guided event selection)."""
        return arcs_of_event(op, pre_states, target) - self.covered

    # ---- reporting -------------------------------------------------------------

    def summary(self) -> str:
        hit = len(self.covered & ALL_ARCS)
        return f"arc coverage: {hit}/{len(ALL_ARCS)} ({self.percent:.1f}%)"

    def render(self) -> str:
        """Table 2 in the paper's layout, with per-cell hit counts."""
        lines = ["Operation     | State | Target      | Other",
                 "--------------+-------+-------------+------------"]
        for op in MemoryOp:
            for i, state in enumerate(LineState):
                t = self.counts.get((op, state, TARGET), 0)
                o = self.counts.get((op, state, OTHER), 0)
                label = str(op) if i == 0 else ""
                lines.append(f"{label:<13} | {state}     | "
                             f"{self._cell(t):<11} | {self._cell(o)}")
        lines.append(self.summary())
        return "\n".join(lines)

    @staticmethod
    def _cell(count: int) -> str:
        return f"hit x{count}" if count else "UNCOVERED"

    @staticmethod
    def render_arcs(arcs: Iterable[Arc]) -> str:
        return ", ".join(f"({op}, {state}, {col})" for op, state, col in arcs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArcCoverage({self.summary()})"
