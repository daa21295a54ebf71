"""The hierarchical cycle-attribution profiler: where did the cycles go?

The paper's evaluation is an attribution exercise — Section 5.1 carves a
run's time into fault handling, flushing, purging, DMA, and ordinary
computation.  :class:`CycleProfiler` reproduces that discipline for any
run: a stack of named scopes (workload → kernel op → hw op) charges
every advance of the shared :class:`~repro.hw.stats.Clock` to the
scope that was active when it happened, producing a top-down "cycle
flamegraph" whose per-scope cycles sum *exactly* to the clock.

The profiler samples the clock at scope entry and exit rather than
hooking :meth:`Clock.advance`, so it also captures the fast paths that
bump ``clock.cycles`` directly and costs nothing when not attached.

:func:`instrument_kernel` installs the standard scope set on a booted
kernel (fault dispatcher, disk transfers, page preparation, buffer
cache, pageout, cache flush/purge, DMA), and :func:`profile_run`
profiles one workload end to end, returning a :class:`ProfileReport`
whose :meth:`~ProfileReport.reconcile` cross-checks the scope totals
against :class:`~repro.hw.stats.Counters` — the flush/purge scopes must
agree with the counters *to the cycle*.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.hw.stats import Clock, Counters, FaultKind
from repro.obs.patch import Patches

#: scope names used by :func:`instrument_kernel`; hw scopes reconcile
#: exactly against the corresponding cycle counters.
SCOPE_FAULT = "kernel.fault"
SCOPE_DISK_READ = "kernel.disk.read"
SCOPE_DISK_WRITE = "kernel.disk.write"
SCOPE_BUFFER_CACHE = "kernel.buffer-cache"
SCOPE_PAGEOUT = "kernel.pageout"
SCOPE_PREP_ZERO = "kernel.prepare.zero-fill"
SCOPE_PREP_COPY = "kernel.prepare.copy"


def _hw_scope(op: str, cache: str) -> str:
    return f"hw.{op}.{cache}"


class ScopeNode:
    """One node of the scope tree; ``cycles`` is inclusive."""

    __slots__ = ("name", "children", "cycles", "count")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, "ScopeNode"] = {}
        self.cycles = 0
        self.count = 0

    def child(self, name: str) -> "ScopeNode":
        node = self.children.get(name)
        if node is None:
            node = ScopeNode(name)
            self.children[name] = node
        return node

    @property
    def self_cycles(self) -> int:
        """Cycles charged to this scope itself, excluding children."""
        return self.cycles - sum(c.cycles for c in self.children.values())

    def walk(self, depth: int = 0):
        yield depth, self
        for child in sorted(self.children.values(),
                            key=lambda n: -n.cycles):
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ScopeNode({self.name!r}, cycles={self.cycles}, "
                f"count={self.count}, children={len(self.children)})")


class CycleProfiler:
    """Charge simulated cycles to a stack of named scopes.

    Usage::

        profiler = CycleProfiler(machine.clock)
        profiler.start("workload:afs-bench")
        with profiler.scope("execute"):
            ...                      # cycles land under execute (or
            ...                      # deeper, if nested scopes open)
        profiler.stop()
        print(profiler.render())

    Invariant (assertion-tested): after ``stop()``, the root's inclusive
    cycles equal the clock delta over the profiled window, and the sum
    of every scope's *self* cycles equals the same delta — no cycle is
    lost or double-charged.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.root: ScopeNode | None = None
        self.start_cycles = 0
        # (node, cycles at entry); index 0 is the root sentinel.
        self._stack: list[tuple[ScopeNode, int]] = []

    # ---- lifecycle ---------------------------------------------------------

    def start(self, name: str = "run") -> "CycleProfiler":
        if self._stack:
            raise RuntimeError("profiler already started")
        self.root = ScopeNode(name)
        self.root.count = 1
        self.start_cycles = self.clock.cycles
        self._stack = [(self.root, self.start_cycles)]
        return self

    def stop(self) -> ScopeNode:
        """Close all open scopes and seal the root; returns the tree."""
        if not self._stack:
            raise RuntimeError("profiler not started")
        while len(self._stack) > 1:
            self.pop()
        root, entry = self._stack.pop()
        root.cycles += self.clock.cycles - entry
        return root

    @property
    def running(self) -> bool:
        return bool(self._stack)

    # ---- the scope stack ---------------------------------------------------

    def push(self, name: str) -> None:
        node = self._stack[-1][0].child(name)
        node.count += 1
        self._stack.append((node, self.clock.cycles))

    def pop(self) -> None:
        node, entry = self._stack.pop()
        node.cycles += self.clock.cycles - entry

    @contextmanager
    def scope(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # ---- aggregation -------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Inclusive cycles of the whole profiled window (after stop)."""
        return self.root.cycles if self.root is not None else 0

    def self_cycles_sum(self) -> int:
        return sum(node.self_cycles for _, node in self.root.walk())

    def aggregate(self) -> dict[str, tuple[int, int]]:
        """name -> (inclusive cycles, calls), summed across the tree.

        Sound for leaf scopes (the hw operations), which never nest
        under themselves.
        """
        totals: dict[str, tuple[int, int]] = {}
        for _, node in self.root.walk():
            cycles, count = totals.get(node.name, (0, 0))
            totals[node.name] = (cycles + node.cycles, count + node.count)
        return totals

    # ---- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The top-down cycle flamegraph table."""
        if self.root is None:
            return "(profiler never started)"
        total = max(self.root.cycles, 1)
        lines = [f"{'scope':<44} {'cycles':>12} {'%':>6} "
                 f"{'self':>12} {'calls':>8}"]
        for depth, node in self.root.walk():
            percent = 100.0 * node.cycles / total
            label = "  " * depth + node.name
            lines.append(f"{label:<44} {node.cycles:>12} {percent:>6.1f} "
                         f"{node.self_cycles:>12} {node.count:>8}")
        return "\n".join(lines)


# ---- kernel instrumentation -------------------------------------------------


def instrument_kernel(profiler: CycleProfiler, kernel) -> Patches:
    """Install the standard workload → kernel op → hw op scope set.

    The wrappers go in through a :class:`~repro.obs.patch.Patches`, the
    seam every observer shares, so the scope set composes with the
    tracer, the recorder and the conformance monitor.  Returns the
    patches; their ``restore()`` removes the scope set again.
    """
    patches = Patches()

    def wrap(owner, attr: str, scope_name: str):
        def make(original):
            def wrapped(*args, **kwargs):
                profiler.push(scope_name)
                try:
                    return original(*args, **kwargs)
                finally:
                    profiler.pop()
            return wrapped
        return patches.wrap(owner, attr, make)

    machine = kernel.machine
    # the machine holds a bound reference to the fault handler
    patches.set(machine, "fault_handler",
                wrap(kernel, "handle_fault", SCOPE_FAULT))
    wrap(kernel.disk, "read_block", SCOPE_DISK_READ)
    wrap(kernel.disk, "write_block", SCOPE_DISK_WRITE)
    wrap(kernel.buffer_cache, "read_block", SCOPE_BUFFER_CACHE)
    wrap(kernel.pageout, "maybe_reclaim", SCOPE_PAGEOUT)
    wrap(kernel.pmap, "zero_fill_page", SCOPE_PREP_ZERO)
    wrap(kernel.pmap, "copy_page", SCOPE_PREP_COPY)
    for cache in (machine.dcache, machine.icache):
        wrap(cache, "flush_page_frame", _hw_scope("flush", cache.name))
        wrap(cache, "purge_page_frame", _hw_scope("purge", cache.name))
    wrap(machine.dma, "dma_read", _hw_scope("dma", "read"))
    wrap(machine.dma, "dma_write", _hw_scope("dma", "write"))
    return patches


# ---- whole-run profiling ----------------------------------------------------


@dataclass(frozen=True)
class ReconcileCheck:
    """One cross-check between the scope tree and the counters."""

    name: str
    scope_value: int
    counter_value: int

    @property
    def ok(self) -> bool:
        return self.scope_value == self.counter_value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ok" if self.ok else "MISMATCH"
        return (f"{self.name}: scopes={self.scope_value} "
                f"counters={self.counter_value} [{verdict}]")


class ProfileReport:
    """A profiled run: the scope tree plus the counter delta."""

    def __init__(self, workload_name: str, policy_name: str,
                 profiler: CycleProfiler, counters: Counters,
                 before: Counters | None = None):
        self.workload_name = workload_name
        self.policy_name = policy_name
        self.profiler = profiler
        self.counters = counters
        self.before = before

    # ---- reconciliation ----------------------------------------------------

    def _delta_cycles(self, counter_name: str, cache: str) -> int:
        after = getattr(self.counters, counter_name)
        total = sum(n for (c, _), n in after.items() if c == cache)
        if self.before is not None:
            prior = getattr(self.before, counter_name)
            total -= sum(n for (c, _), n in prior.items() if c == cache)
        return total

    def reconcile(self) -> list[ReconcileCheck]:
        """The scope tree vs the counters, exact to the cycle.

        * every ``hw.flush.*`` / ``hw.purge.*`` scope total equals the
          corresponding flush/purge cycle counter (the scope brackets
          exactly the cache operation that records the cost);
        * the per-scope self cycles sum to the profiled clock delta
          (no cycle escapes attribution).
        """
        totals = self.profiler.aggregate()
        checks = []
        for cache in ("dcache", "icache"):
            for op, counter in (("flush", "flush_cycles"),
                                ("purge", "purge_cycles")):
                scope_cycles = totals.get(_hw_scope(op, cache), (0, 0))[0]
                checks.append(ReconcileCheck(
                    f"{op}_cycles[{cache}]", scope_cycles,
                    self._delta_cycles(counter, cache)))
        checks.append(ReconcileCheck(
            "total_cycles == sum(self cycles)",
            self.profiler.self_cycles_sum(), self.profiler.total_cycles))
        return checks

    # ---- rendering ---------------------------------------------------------

    def render_breakdown(self) -> str:
        """The Section 5.1 per-reason breakdown from the counters."""
        counters = self.counters
        lines = [f"{'operation':<34} {'count':>8} {'cycles':>12} "
                 f"{'share':>7}"]

        def share(cycles: int) -> str:
            total = max(self.profiler.total_cycles, 1)
            return f"{100.0 * cycles / total:>6.2f}%"

        for kind in FaultKind:
            n = counters.faults[kind]
            cycles = counters.fault_cycles[kind]
            lines.append(f"{'fault:' + str(kind):<34} {n:>8} {cycles:>12} "
                         f"{share(cycles)}")
        for op, counts, cycle_counter in (
                ("flush", counters.page_flushes, counters.flush_cycles),
                ("purge", counters.page_purges, counters.purge_cycles)):
            for (cache, reason) in sorted(counts, key=str):
                n = counts[(cache, reason)]
                cycles = cycle_counter[(cache, reason)]
                lines.append(
                    f"{op + ':' + cache + ':' + str(reason):<34} "
                    f"{n:>8} {cycles:>12} {share(cycles)}")
        return "\n".join(lines)

    def render(self) -> str:
        header = (f"cycle attribution: {self.workload_name} under "
                  f"configuration {self.policy_name} "
                  f"({self.profiler.total_cycles} cycles)")
        checks = "\n".join(f"  {c}" for c in self.reconcile())
        return (f"{header}\n\n{self.profiler.render()}\n\n"
                f"per-reason breakdown (counters):\n"
                f"{self.render_breakdown()}\n\n"
                f"reconciliation:\n{checks}")

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.reconcile())


def profile_run(workload_name: str, policy=None, scale: float | None = None,
                config=None) -> ProfileReport:
    """Profile one paper workload end to end.

    Boots a kernel (:func:`~repro.analysis.experiments.boot`), installs
    the standard scope set, runs setup / execute / shutdown under their
    own scopes, and returns the report.
    """
    import copy

    from repro.analysis.experiments import DEFAULT_SCALE, boot, make_workload
    from repro.vm.policy import NEW_SYSTEM

    policy = policy if policy is not None else NEW_SYSTEM
    workload = make_workload(workload_name,
                             DEFAULT_SCALE if scale is None else scale)
    kernel = boot(policy, config).kernel
    before = copy.deepcopy(kernel.machine.counters)
    profiler = CycleProfiler(kernel.machine.clock)
    profiler.start(f"workload:{workload_name}")
    patches = instrument_kernel(profiler, kernel)
    try:
        with profiler.scope("setup"):
            workload.setup(kernel)
        with profiler.scope("execute"):
            workload.execute(kernel)
        with profiler.scope("shutdown"):
            kernel.shutdown()
    finally:
        patches.restore()
        profiler.stop()
    return ProfileReport(workload_name, kernel.cpolicy.name, profiler,
                         kernel.machine.counters, before=before)
