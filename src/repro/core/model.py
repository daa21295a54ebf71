"""The formal consistency model of Section 3, executable.

:class:`ConsistencyModel` tracks the consistency state of every cache page
with respect to **one** physical page, and applies the Table 2 transitions
for each memory-system event.  Aliasing is captured naturally: all virtual
addresses that align (select the same cache page) share one state, while
unaligned aliases occupy distinct states — so aligned aliases never
require consistency actions.

This class is the *specification*.  The page-granularity algorithm of
Figure 1 (:mod:`repro.core.cache_control`) is an implementation that may
be pessimistic (it may perform extra flushes or purges) but must never
admit an access the model says requires an action it did not perform; the
refinement property tests check exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import Action, LineState, MemoryOp
from repro.core.transitions import other_transition, target_transition
from repro.errors import ReproError


@dataclass(frozen=True)
class RequiredAction:
    """One consistency action Table 2 demands for an event."""

    action: Action          # PURGE or FLUSH
    cache_page: int         # which cache page it applies to

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.action} cache page {self.cache_page}"


class ConsistencyModel:
    """States of all cache pages with respect to one physical page.

    At power-up all lines are Empty (Section 3.2).  ``apply`` performs one
    event atomically: it computes the required actions, transitions the
    target cache page by the target column and every other cache page by
    the other column, and returns the actions in the order they must be
    performed (actions strictly precede the access itself).
    """

    def __init__(self, num_cache_pages: int):
        if num_cache_pages <= 0:
            raise ReproError("need at least one cache page")
        self.num_cache_pages = num_cache_pages
        self.states = [LineState.EMPTY] * num_cache_pages

    # ---- event application ------------------------------------------------------

    def apply(self, op: MemoryOp,
              target_cache_page: int | None = None) -> list[RequiredAction]:
        """Apply one event; returns the consistency actions it required.

        ``target_cache_page`` selects the target line for CPU operations
        and for explicit Purge/Flush.  For DMA operations the paper notes
        all lines sharing the physical address transition identically, so
        the target may be omitted.
        """
        if op.is_cpu or op.is_cache_op:
            if target_cache_page is None:
                raise ReproError(f"{op} requires a target cache page")
            return self._apply_with_target(op, target_cache_page)
        # DMA: uniform transitions for every cache page.
        actions: list[RequiredAction] = []
        for c in range(self.num_cache_pages):
            action, nxt = other_transition(op, self.states[c])
            if action != Action.NONE:
                actions.append(RequiredAction(action, c))
            self.states[c] = nxt
        return actions

    def _apply_with_target(self, op: MemoryOp,
                           target: int) -> list[RequiredAction]:
        self._check_page(target)
        actions: list[RequiredAction] = []
        # Other lines first: their obligations (e.g. flushing a dirty
        # unaligned alias) must complete before the target access touches
        # memory (Section 3.2: "the requisite state transitions must occur
        # atomically" and an empty line must not be read "before dirty
        # data in another similarly mapped line has been flushed").
        for c in range(self.num_cache_pages):
            if c == target:
                continue
            action, nxt = other_transition(op, self.states[c])
            if action != Action.NONE:
                actions.append(RequiredAction(action, c))
            self.states[c] = nxt
        action, nxt = target_transition(op, self.states[target])
        if action != Action.NONE:
            actions.append(RequiredAction(action, target))
        self.states[target] = nxt
        return actions

    def _check_page(self, cache_page: int) -> None:
        if not 0 <= cache_page < self.num_cache_pages:
            raise ReproError(f"cache page {cache_page} out of range "
                             f"[0, {self.num_cache_pages})")

    # ---- queries -----------------------------------------------------------------

    def state(self, cache_page: int) -> LineState:
        self._check_page(cache_page)
        return self.states[cache_page]

    def dirty_cache_pages(self) -> list[int]:
        return [c for c, s in enumerate(self.states) if s == LineState.DIRTY]

    def validate(self) -> None:
        """Model invariant: data corresponding to a physical address is
        dirty in at most one cache line (Section 3.2 correctness argument)."""
        if len(self.dirty_cache_pages()) > 1:
            raise ReproError(
                f"model invariant violated: dirty in cache pages "
                f"{self.dirty_cache_pages()}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ConsistencyModel(" + "".join(map(str, self.states)) + ")"
