"""Bounded exhaustive checking of the consistency machinery.

The hypothesis suites sample the behaviour space; this module *covers*
it, for small parameters: every sequence of memory events up to a given
depth over a given number of cache pages is enumerated, and for each
step three judgments are made:

1. the model's single-dirty invariant holds (Section 3.2);
2. the Figure 1 engine's page state stays structurally valid (Table 3);
3. the engine performs every action the model requires (refinement) —
   with a flush accepted where a purge is required, since a flush also
   removes the line.

The walk is a depth-first search that shares common prefixes (one model
and one engine state, snapshotted and restored around each branch) and
deduplicates on the combined (model, engine) state: the judgments at a
node depend only on the current state, so a subtree rooted at a state
already explored with at least as much remaining depth cannot contain a
new violation and is counted without being replayed.  That collapses the
8^6 = 262,144 sequences of the depth-6 / 3-page default to a few hundred
engine calls, so the full run stays well under a second.  This is the
strongest correctness statement in the repository short of a real proof:
*no* event sequence within the bound can make the implementation skip a
required consistency action.

The event alphabet is shared with the conformance explorer
(:mod:`repro.conformance.explorer`), which extends it with explicit
Purge/Flush events (``include_cache_ops=True``) — those rows of Table 2
never require actions, so the exhaustive refinement check keeps the
default alphabet of inconsistency-*creating* events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache_control import CacheControl
from repro.core.model import ConsistencyModel
from repro.core.page_state import PhysPageState
from repro.core.states import (CACHE_OP_EVENTS, CPU_EVENTS, DMA_EVENTS,
                               Action, MemoryOp)


def event_alphabet(num_cache_pages: int, include_cache_ops: bool = False
                   ) -> list[tuple[MemoryOp, int | None]]:
    """All distinct events over ``num_cache_pages`` cache pages.

    Built from the module-level event groups in :mod:`repro.core.states`
    (the one definition the conformance explorer shares).  With
    ``include_cache_ops`` the alphabet also carries explicit Purge and
    Flush events per cache page (the last two rows of Table 2), which
    the conformance explorer drives directly at the page-state level.
    """
    events: list[tuple[MemoryOp, int | None]] = []
    for op in CPU_EVENTS:
        for target in range(num_cache_pages):
            events.append((op, target))
    for op in DMA_EVENTS:
        events.append((op, None))
    if include_cache_ops:
        for op in CACHE_OP_EVENTS:
            for target in range(num_cache_pages):
                events.append((op, target))
    return events


@dataclass
class CheckReport:
    """What an exhaustive run covered.

    ``sequences`` counts complete depth-``depth`` event sequences whose
    every step was judged (directly or via a deduplicated subtree);
    ``steps`` counts the engine transitions actually executed.  A report
    produced by a prefix shard (see :func:`shard_prefixes`) records the
    alphabet-index prefix it covered; :func:`merge_reports` combines the
    shards back into the full-space report.
    """

    num_cache_pages: int
    depth: int
    sequences: int
    steps: int
    violations: list[str]
    prefix: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"num_cache_pages": self.num_cache_pages,
                "depth": self.depth, "sequences": self.sequences,
                "steps": self.steps, "violations": list(self.violations),
                "prefix": list(self.prefix)}

    @classmethod
    def from_dict(cls, data: dict) -> "CheckReport":
        return cls(num_cache_pages=data["num_cache_pages"],
                   depth=data["depth"], sequences=data["sequences"],
                   steps=data["steps"],
                   violations=list(data["violations"]),
                   prefix=tuple(data.get("prefix", ())))


def shard_prefixes(num_cache_pages: int,
                   shard_depth: int = 1) -> list[tuple[int, ...]]:
    """Every alphabet-index prefix of length ``shard_depth``: the shard
    space of one exhaustive run.  Each prefix names a disjoint subtree of
    the event-sequence space, so the shards can be checked independently
    (on the farm) and merged; their union is exactly the full run."""
    fanout = len(event_alphabet(num_cache_pages))
    prefixes: list[tuple[int, ...]] = [()]
    for _ in range(shard_depth):
        prefixes = [p + (i,) for p in prefixes for i in range(fanout)]
    return prefixes


def merge_reports(reports: list[CheckReport]) -> CheckReport:
    """Combine per-prefix shard reports into the full-space report.

    Callers are expected to pass one report per prefix of a complete
    :func:`shard_prefixes` shard space; sequence and step counts add up
    (the subtrees are disjoint) and violations concatenate.
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    first = reports[0]
    violations: list[str] = []
    for report in reports:
        violations += report.violations
    return CheckReport(num_cache_pages=first.num_cache_pages,
                       depth=first.depth,
                       sequences=sum(r.sequences for r in reports),
                       steps=sum(r.steps for r in reports),
                       violations=violations)


class _ActionCollector:
    def __init__(self) -> None:
        self.performed: set[tuple[Action, int]] = set()

    def flush(self, cache_page, ppage, reason):
        self.performed.add((Action.FLUSH, cache_page))

    def purge(self, cache_page, ppage, reason):
        self.performed.add((Action.PURGE, cache_page))

    def protect(self, mapping, prot):
        pass

    def satisfied(self, action: Action, cache_page: int) -> bool:
        if (action, cache_page) in self.performed:
            return True
        # A flush removes the line too, so it satisfies a purge demand.
        return (action is Action.PURGE
                and (Action.FLUSH, cache_page) in self.performed)


def check_all_sequences(num_cache_pages: int = 3, depth: int = 6,
                        dedup: bool = True,
                        prefix: tuple[int, ...] = (),
                        model_factory=ConsistencyModel) -> CheckReport:
    """Cover every event sequence up to ``depth`` and check the three
    judgments at every step, stopping at the first violation.  Returns a
    report; ``ok`` means no sequence violated anything.  ``dedup=False``
    disables the state deduplication (every prefix is walked explicitly;
    used to validate the dedup).

    ``prefix`` restricts the walk to the subtree whose first events are
    the given alphabet indices (see :func:`shard_prefixes`): those events
    are applied — and judged — first, then every suffix of the remaining
    depth is covered.  ``depth`` stays the *total* sequence depth, so the
    reports of a full shard space merge into exactly the unsharded run.

    ``model_factory`` selects which derived Table 2 the Section 4 engine
    is checked against — ``factory(num_cache_pages) -> model``, e.g. a
    :mod:`repro.core.variants` class.  Soundness: the engine performs the
    canonical actions, every variant demands a subset of them, and the
    variant's own state invariants are validated at each step.  (The
    physically indexed variant must run at ``num_cache_pages=1``: its
    hardware maps each frame to a single cache page, which the
    multi-target event alphabet would otherwise contradict.)
    """
    alphabet = event_alphabet(num_cache_pages)
    if len(prefix) > depth:
        raise ValueError(f"prefix of length {len(prefix)} exceeds "
                         f"depth {depth}")
    violations: list[str] = []
    sequences = 0
    steps = 0

    model = model_factory(num_cache_pages)
    state = PhysPageState(0, num_cache_pages)
    collector = _ActionCollector()
    engine = CacheControl(collector.flush, collector.purge,
                          collector.protect)
    path: list[tuple[MemoryOp, int | None]] = []
    # (remaining depth, model states, mapped, stale, dirty) -> judged.
    visited: set[tuple] = set()
    fanout = len(alphabet)

    def snapshot() -> tuple:
        return (tuple(model.states), state.mapped._bits, state.stale._bits,
                state.cache_dirty)

    def restore(snap: tuple) -> None:
        model.states = list(snap[0])
        state.mapped._bits = snap[1]
        state.stale._bits = snap[2]
        state.cache_dirty = snap[3]

    def judge(op: MemoryOp, target: int | None) -> bool:
        """Apply one event to both sides and judge it; True == violated."""
        nonlocal steps
        steps += 1
        required = model.apply(op, target)
        collector.performed.clear()
        engine(state, op, target if op.is_cpu else None,
               need_data=(op is not MemoryOp.DMA_WRITE))
        try:
            model.validate()
            state.validate()
        except Exception as error:  # structural invariant broken
            violations.append(f"{tuple(path)}: invariant: {error}")
            return True
        missing = [a for a in required
                   if not collector.satisfied(a.action, a.cache_page)]
        if missing:
            violations.append(f"{tuple(path)}: engine skipped {missing}")
            return True
        return False

    def visit(remaining: int) -> bool:
        """Walk all suffixes of the current state; True aborts the search."""
        nonlocal sequences
        if remaining == 0:
            sequences += 1
            return False
        if dedup:
            key = (remaining,) + snapshot()
            if key in visited:
                sequences += fanout ** remaining
                return False
            visited.add(key)
        snap = snapshot()
        for op, target in alphabet:
            path.append((op, target))
            if judge(op, target) or visit(remaining - 1):
                return True
            path.pop()
            restore(snap)
        return False

    # The shard prefix is applied — and judged — before the walk; its
    # subtree then covers every suffix of the remaining depth.
    for index in prefix:
        op, target = alphabet[index]
        path.append((op, target))
        if judge(op, target):
            return CheckReport(num_cache_pages, depth, 0, steps, violations,
                               tuple(prefix))
    visit(depth - len(prefix))
    return CheckReport(num_cache_pages, depth, sequences, steps, violations,
                       tuple(prefix))
