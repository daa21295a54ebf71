"""Deterministic round-robin multi-CPU scheduling.

The simulator executes one memory access at a time against a single
shared clock, so "scheduling" needs exactly two decisions: *which CPU a
task's accesses go through* (the machine's per-asid CPU binding — that
is what makes sharing an SMP problem at all) and *in what order the
runnable tasklets interleave* (which determines every snoop, every
coherence write-back, and therefore every counter and cycle of a run).

:class:`Scheduler` makes both deterministically.  Tasklets are plain
Python generators: each ``yield`` is a voluntary preemption point (the
end of a scheduling quantum).  One :meth:`round` visits the CPUs in
order 0..N-1 and runs one quantum of the front tasklet of each CPU's
queue, rotating that queue — the classic per-CPU round-robin.  No RNG,
no wall clock: the same spawn order always produces the same
interleaving, which the chaos harness and the conformance monitors rely
on for replayable failures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class Tasklet:
    """One schedulable strand of work pinned to a CPU."""

    name: str
    cpu: int
    gen: Iterator = field(repr=False)
    quanta: int = 0
    done: bool = False


class Scheduler:
    """Per-CPU run queues with deterministic round-robin dispatch."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.n_cpus = kernel.machine.config.n_cpus
        self.queues: list[deque[Tasklet]] = [deque()
                                             for _ in range(self.n_cpus)]
        self.finished: list[Tasklet] = []
        self._spawned = 0

    # ---- placement ---------------------------------------------------------

    def spawn(self, name: str, gen: Iterator,
              cpu: int | None = None) -> Tasklet:
        """Enqueue a generator as a tasklet.

        Without an explicit ``cpu`` the ``k``-th tasklet spawned
        (counting from 0, explicitly placed ones included) runs on CPU
        ``k % n_cpus``.  That is not :meth:`Kernel.create_task`'s rule,
        which puts asid ``a`` on CPU ``(a - 1) % n_cpus``: asid 1, the
        Unix server, takes CPU 0, so the first user task lands on CPU 1
        while the first default tasklet lands on CPU 0.  Pass ``cpu`` to
        run a tasklet beside its task.
        """
        if cpu is None:
            cpu = self._spawned % self.n_cpus
        if not 0 <= cpu < self.n_cpus:
            raise ConfigurationError(
                f"CPU {cpu} out of range for {self.n_cpus} CPUs")
        self._spawned += 1
        tasklet = Tasklet(name=name, cpu=cpu, gen=iter(gen))
        self.queues[cpu].append(tasklet)
        return tasklet

    # ---- dispatch ----------------------------------------------------------

    @property
    def runnable(self) -> int:
        return sum(len(q) for q in self.queues)

    def round(self) -> int:
        """One scheduling round: each CPU runs one quantum of the tasklet
        at the front of its queue.  Returns the number of quanta run."""
        ran = 0
        for queue in self.queues:
            if not queue:
                continue
            tasklet = queue.popleft()
            tasklet.quanta += 1
            ran += 1
            # Policy hook at the context switch: a no-op for every policy
            # shipped here (the caches are physically tagged), but the
            # decision point exists for strategies that flush on switch.
            self.kernel.cpolicy.on_context_switch(self.kernel, tasklet)
            try:
                next(tasklet.gen)
            except StopIteration:
                tasklet.done = True
                self.finished.append(tasklet)
            else:
                queue.append(tasklet)
        return ran

    def run(self, max_rounds: int | None = None) -> int:
        """Dispatch rounds until every tasklet finishes (or the bound is
        hit); returns the number of rounds run."""
        rounds = 0
        while self.runnable:
            if max_rounds is not None and rounds >= max_rounds:
                break
            self.round()
            rounds += 1
        return rounds
