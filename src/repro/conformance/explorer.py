"""Coverage-guided random exploration of the model/engine lockstep pair.

The exhaustive checker (:mod:`repro.core.exhaustive`) covers *every*
sequence up to a small depth; the explorer goes deeper (default 16
events) by sampling, and spends its randomness where it pays: at each
step it prefers events that would traverse a Table 2 arc no earlier
event has covered (computed against the current model states), falling
back to uniform choice once everything reachable from here is known.
All randomness comes from one ``random.Random(seed)`` — a (seed,
parameters) pair fully determines the run, like the chaos harness.

Each generated event drives a :class:`LockstepPair`: the Figure 1 engine
runs first, its performed flushes/purges are fed to the model as events
(the model then reflects the physical cache truth), and the raw event is
applied last — at which point the model must demand nothing (the engine
already discharged every obligation) and the dangerous-direction state
comparison of the lockstep monitor must hold.  Unlike the kernel-level
monitor, the alphabet here includes explicit Purge/Flush events, so all
48 arcs of Table 2 are reachable (the exhaustive arc test asserts
exactly that).

A failing sequence is shrunk to a locally minimal counterexample by
greedy event deletion — any subsequence that still diverges replaces the
original — which against the seeded mutants lands at 2-4 events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.conformance.coverage import ArcCoverage
from repro.core.cache_control import CacheControl
from repro.core.exhaustive import event_alphabet
from repro.core.model import ConsistencyModel
from repro.core.page_state import PhysPageState
from repro.core.states import ACTION_EVENT, LineState, MemoryOp
from repro.errors import ReproError

#: One explorer event: (operation, target cache page or None for DMA).
Event = tuple[MemoryOp, int | None]


def apply_cache_op(state: PhysPageState, op: MemoryOp,
                   cache_page: int) -> None:
    """Apply an explicit Purge/Flush to the Table 3 bookkeeping: the line
    leaves the cache, so the page is neither mapped nor stale there, and
    dirtiness is gone if it lived in this cache page."""
    if (state.cache_dirty and state.mapped[cache_page]
            and state.find_mapped_cache_page() == cache_page):
        state.cache_dirty = False
    state.mapped[cache_page] = False
    state.stale[cache_page] = False


@dataclass(frozen=True)
class StepDivergence:
    """Where and how a sequence diverged."""

    step: int                  # index of the diverging event
    kind: str                  # "missed-action" | "state-divergence" | "invariant"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"step {self.step}: {self.kind}: {self.detail}"


class LockstepPair:
    """One model shadowing one Figure 1 engine, event by event."""

    def __init__(self, num_cache_pages: int, *,
                 eager_purge_stale: bool = False,
                 coverage: ArcCoverage | None = None):
        self.num_cache_pages = num_cache_pages
        self.model = ConsistencyModel(num_cache_pages)
        self.state = PhysPageState(0, num_cache_pages)
        self.coverage = coverage
        self.engine = CacheControl(lambda *a: None, lambda *a: None,
                                   lambda *a: None,
                                   eager_purge_stale=eager_purge_stale)

    def step(self, op: MemoryOp, target: int | None) -> StepDivergence | None:
        """Run one event through both sides; returns the divergence, if
        any (the step index is filled in by the caller)."""
        pre = list(self.model.states)
        if op.is_cache_op:
            self._cover(op, pre, target)
            self.model.apply(op, target)
            apply_cache_op(self.state, op, target)
            return self._check_states()
        performed = self.engine(self.state, op,
                                target if op.is_cpu else None,
                                need_data=(op is not MemoryOp.DMA_WRITE))
        # The engine's actions are ground truth for the physical cache:
        # feed them to the model first, then the raw event — which must
        # then demand nothing.
        for done in performed:
            cache_op = ACTION_EVENT[done.action]
            self._cover(cache_op, self.model.states, done.cache_page)
            self.model.apply(cache_op, done.cache_page)
        required = self.model.apply(op, target)
        self._cover(op, pre, target)
        if required:
            return StepDivergence(
                -1, "missed-action",
                f"{op} proceeded although the model still requires "
                f"{', '.join(map(str, required))}")
        try:
            self.model.validate()
            self.state.validate()
        except ReproError as error:
            return StepDivergence(-1, "invariant", str(error))
        return self._check_states()

    def _cover(self, op: MemoryOp, pre_states: list[LineState],
               target: int | None) -> None:
        if self.coverage is not None:
            self.coverage.record_event(op, pre_states, target)

    def _check_states(self) -> StepDivergence | None:
        """Dangerous-direction comparison: model S => impl S, model D =>
        impl D (see the lockstep monitor's docstring for why the other
        direction is sound pessimism)."""
        for c, model_state in enumerate(self.model.states):
            if model_state not in (LineState.STALE, LineState.DIRTY):
                continue
            impl = self.state.decode(c)
            if impl is not model_state:
                return StepDivergence(
                    -1, "state-divergence",
                    f"cache page {c}: model says {model_state.name} but the "
                    f"engine's bookkeeping decodes {impl.name}")
        return None


@dataclass
class Counterexample:
    """A diverging sequence, as found and as shrunk."""

    sequence: list[Event]
    divergence: StepDivergence
    shrunk: list[Event] = field(default_factory=list)

    @property
    def events_until_detection(self) -> int:
        return self.divergence.step + 1

    def render(self) -> str:
        def fmt(seq):
            return " ; ".join(f"{op}" + (f"@{t}" if t is not None else "")
                              for op, t in seq)
        return (f"{self.divergence.kind} after "
                f"{self.events_until_detection} events\n"
                f"  found:  {fmt(self.sequence)}\n"
                f"  shrunk: {fmt(self.shrunk)} ({len(self.shrunk)} events)\n"
                f"  detail: {self.divergence.detail}")

    def to_dict(self) -> dict:
        def encode(seq):
            return [[op.name, target] for op, target in seq]
        return {"sequence": encode(self.sequence),
                "divergence": {"step": self.divergence.step,
                               "kind": self.divergence.kind,
                               "detail": self.divergence.detail},
                "shrunk": encode(self.shrunk)}

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        def decode(rows):
            return [(MemoryOp[op], target) for op, target in rows]
        d = data["divergence"]
        return cls(sequence=decode(data["sequence"]),
                   divergence=StepDivergence(d["step"], d["kind"],
                                             d["detail"]),
                   shrunk=decode(data["shrunk"]))


@dataclass
class ExplorationReport:
    """What one explorer run covered and found."""

    num_cache_pages: int
    seed: int
    sequences: int
    events: int
    counterexamples: list[Counterexample]
    coverage: ArcCoverage

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def divergences(self) -> int:
        return len(self.counterexamples)

    def render(self) -> str:
        lines = [f"explorer: {self.sequences} sequences, {self.events} "
                 f"events, {self.divergences} divergences "
                 f"(seed {self.seed}, {self.num_cache_pages} cache pages)",
                 self.coverage.summary()]
        if not self.coverage.complete:
            lines.append("  uncovered: "
                         + ArcCoverage.render_arcs(self.coverage.uncovered()))
        for ce in self.counterexamples:
            lines.append(ce.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-safe encoding that :meth:`from_dict` inverts exactly;
        the farm runs explorer shards in worker processes and merges the
        reports (and their arc coverage) in the parent."""
        return {"num_cache_pages": self.num_cache_pages, "seed": self.seed,
                "sequences": self.sequences, "events": self.events,
                "counterexamples": [ce.to_dict()
                                    for ce in self.counterexamples],
                "coverage": self.coverage.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationReport":
        return cls(num_cache_pages=data["num_cache_pages"],
                   seed=data["seed"], sequences=data["sequences"],
                   events=data["events"],
                   counterexamples=[Counterexample.from_dict(ce)
                                    for ce in data["counterexamples"]],
                   coverage=ArcCoverage.from_dict(data["coverage"]))


def merge_exploration_reports(
        reports: list["ExplorationReport"]) -> "ExplorationReport":
    """Combine per-seed explorer shards: coverage merges, sequence and
    event counts add, counterexamples concatenate.  ``seed`` of the merge
    is the first shard's (the shard seeds are recorded per report)."""
    if not reports:
        raise ValueError("no exploration reports to merge")
    coverage = ArcCoverage()
    counterexamples: list[Counterexample] = []
    for report in reports:
        coverage.merge(report.coverage)
        counterexamples += report.counterexamples
    first = reports[0]
    return ExplorationReport(num_cache_pages=first.num_cache_pages,
                             seed=first.seed,
                             sequences=sum(r.sequences for r in reports),
                             events=sum(r.events for r in reports),
                             counterexamples=counterexamples,
                             coverage=coverage)


class Explorer:
    """Seeded, coverage-guided sequence generator over the lockstep pair."""

    def __init__(self, num_cache_pages: int = 3, seed: int = 0,
                 min_depth: int = 4, max_depth: int = 16,
                 eager_purge_stale: bool = False):
        self.num_cache_pages = num_cache_pages
        self.seed = seed
        self.min_depth = min_depth
        self.max_depth = max_depth
        self.eager_purge_stale = eager_purge_stale
        self.alphabet: list[Event] = event_alphabet(num_cache_pages,
                                                    include_cache_ops=True)
        self.rng = random.Random(seed)
        self.coverage = ArcCoverage()

    # ---- replay -----------------------------------------------------------------

    def _pair(self, coverage: ArcCoverage | None = None) -> LockstepPair:
        return LockstepPair(self.num_cache_pages,
                            eager_purge_stale=self.eager_purge_stale,
                            coverage=coverage)

    def run_sequence(self, sequence: list[Event],
                     coverage: ArcCoverage | None = None
                     ) -> StepDivergence | None:
        """Replay a sequence from the power-up state; returns the first
        divergence with its step index, or None."""
        pair = self._pair(coverage)
        for i, (op, target) in enumerate(sequence):
            divergence = pair.step(op, target)
            if divergence is not None:
                return StepDivergence(i, divergence.kind, divergence.detail)
        return None

    # ---- generation -------------------------------------------------------------

    def _choose(self, pair: LockstepPair) -> Event:
        novel = [ev for ev in self.alphabet
                 if self.coverage.novel_arcs(ev[0], pair.model.states, ev[1])]
        pool = novel or self.alphabet
        return pool[self.rng.randrange(len(pool))]

    def _generate_one(self) -> tuple[list[Event], StepDivergence | None, int]:
        """Generate and run one sequence; returns (sequence, divergence,
        events executed)."""
        pair = self._pair(self.coverage)
        length = self.rng.randint(self.min_depth, self.max_depth)
        sequence: list[Event] = []
        for i in range(length):
            event = self._choose(pair)
            sequence.append(event)
            divergence = pair.step(*event)
            if divergence is not None:
                return (sequence,
                        StepDivergence(i, divergence.kind, divergence.detail),
                        i + 1)
        return sequence, None, length

    # ---- entry points -----------------------------------------------------------

    def explore(self, sequences: int = 200) -> ExplorationReport:
        """Run ``sequences`` coverage-guided sequences; shrink failures."""
        events = 0
        counterexamples: list[Counterexample] = []
        for _ in range(sequences):
            sequence, divergence, executed = self._generate_one()
            events += executed
            if divergence is not None:
                counterexamples.append(
                    Counterexample(sequence, divergence,
                                   self.shrink(sequence)))
        return ExplorationReport(self.num_cache_pages, self.seed, sequences,
                                 events, counterexamples, self.coverage)

    def explore_until_covered(self, max_events: int = 100_000
                              ) -> ExplorationReport:
        """Keep generating until every Table 2 arc is covered (or the
        event budget runs out); divergences are collected, not raised."""
        events = 0
        sequences = 0
        counterexamples: list[Counterexample] = []
        while not self.coverage.complete and events < max_events:
            sequence, divergence, executed = self._generate_one()
            events += executed
            sequences += 1
            if divergence is not None:
                counterexamples.append(
                    Counterexample(sequence, divergence,
                                   self.shrink(sequence)))
        return ExplorationReport(self.num_cache_pages, self.seed, sequences,
                                 events, counterexamples, self.coverage)

    # ---- shrinking --------------------------------------------------------------

    def shrink(self, sequence: list[Event]) -> list[Event]:
        """Greedy event deletion to a locally minimal diverging sequence:
        no single event can be removed and still reproduce a divergence."""
        current = list(sequence)
        changed = True
        while changed:
            changed = False
            for i in range(len(current)):
                candidate = current[:i] + current[i + 1:]
                if candidate and self.run_sequence(candidate) is not None:
                    current = candidate
                    changed = True
                    break
        return current
