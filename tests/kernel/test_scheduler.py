"""The deterministic round-robin multi-CPU scheduler."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.hw.params import small_machine
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import Scheduler


def make_kernel(n_cpus=4):
    return Kernel(config=small_machine(n_cpus=n_cpus, phys_pages=128),
                  buffer_cache_pages=8)


def step_counter(log, name, steps):
    for i in range(steps):
        log.append((name, i))
        yield


class TestPlacement:
    def test_round_robin_by_spawn_order(self):
        sched = Scheduler(make_kernel(3))
        tasklets = [sched.spawn(f"t{i}", iter(())) for i in range(5)]
        assert [t.cpu for t in tasklets] == [0, 1, 2, 0, 1]

    def test_explicit_cpu_respected(self):
        sched = Scheduler(make_kernel(4))
        assert sched.spawn("pinned", iter(()), cpu=3).cpu == 3

    def test_out_of_range_cpu_rejected(self):
        sched = Scheduler(make_kernel(2))
        with pytest.raises(ConfigurationError):
            sched.spawn("bad", iter(()), cpu=2)

    def test_uniprocessor_kernel_gives_one_queue(self):
        sched = Scheduler(Kernel(config=small_machine(phys_pages=128),
                                 buffer_cache_pages=8))
        assert sched.n_cpus == 1


class TestDispatch:
    def test_round_visits_cpus_in_order(self):
        log = []
        sched = Scheduler(make_kernel(3))
        for i in range(3):
            sched.spawn(f"t{i}", step_counter(log, f"t{i}", 2), cpu=i)
        sched.round()
        assert log == [("t0", 0), ("t1", 0), ("t2", 0)]

    def test_same_spawn_order_same_interleaving(self):
        def trace():
            log = []
            sched = Scheduler(make_kernel(2))
            sched.spawn("a", step_counter(log, "a", 3))
            sched.spawn("b", step_counter(log, "b", 2))
            sched.spawn("c", step_counter(log, "c", 4))
            sched.run()
            return log

        assert trace() == trace()

    def test_run_drains_everything(self):
        log = []
        sched = Scheduler(make_kernel(2))
        for i in range(4):
            sched.spawn(f"t{i}", step_counter(log, f"t{i}", 3))
        sched.run()
        assert sched.runnable == 0
        assert len(sched.finished) == 4
        assert all(t.done for t in sched.finished)
        assert len(log) == 12

    def test_max_rounds_bounds_dispatch(self):
        log = []
        sched = Scheduler(make_kernel(1))
        sched.spawn("long", step_counter(log, "long", 100))
        assert sched.run(max_rounds=5) == 5
        assert sched.runnable == 1

    def test_two_tasklets_share_one_cpu_round_robin(self):
        log = []
        sched = Scheduler(make_kernel(1))
        sched.spawn("a", step_counter(log, "a", 2), cpu=0)
        sched.spawn("b", step_counter(log, "b", 2), cpu=0)
        sched.run()
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


class TestCpuBinding:
    def test_create_task_spreads_over_cpus(self):
        # asid 1 is the Unix server on CPU 0; user tasks continue the
        # (asid - 1) % n round-robin from CPU 1.
        kernel = make_kernel(3)
        tasks = [kernel.create_task(f"t{i}") for i in range(4)]
        bindings = kernel.machine.cpu_bindings
        assert [bindings[t.asid] for t in tasks] == [1, 2, 0, 1]

    def test_explicit_binding_and_migration(self):
        kernel = make_kernel(4)
        task = kernel.create_task("pinned", cpu=2)
        assert kernel.machine.cpu_bindings[task.asid] == 2
        kernel.machine.bind_cpu(task.asid, 0)
        assert kernel.machine.cpu_bindings[task.asid] == 0

    def test_uniprocessor_rejects_nonzero_cpu(self):
        kernel = Kernel(config=small_machine(phys_pages=128),
                        buffer_cache_pages=8)
        with pytest.raises(ConfigurationError):
            kernel.create_task("bad", cpu=1)

    def test_accesses_route_to_the_bound_cpu(self):
        kernel = make_kernel(2)
        task = kernel.create_task("t", cpu=1)
        vpage = task.allocate_anon(1)
        task.write(vpage, 0, 42)
        cpu0, cpu1 = kernel.machine.dcaches
        assert cpu1._dirty.any()
        assert not cpu0._dirty.any()


class TestCpuRange:
    """One rule on every CPU count: a CPU outside ``0 .. n_cpus - 1``
    raises :class:`ConfigurationError` and registers and binds nothing."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("cpu", ["n_cpus", -1])
    def test_create_task_rejects_before_registering(self, n_cpus, cpu):
        kernel = make_kernel(n_cpus)
        cpu = n_cpus if cpu == "n_cpus" else cpu
        tasks = dict(kernel.tasks)
        bindings = copy.copy(kernel.machine.cpu_bindings)
        with pytest.raises(ConfigurationError):
            kernel.create_task("bad", cpu=cpu)
        assert kernel.tasks == tasks
        assert kernel.machine.cpu_bindings == bindings
        # The kernel stays usable: the next task is created and bound.
        task = kernel.create_task("good", cpu=n_cpus - 1)
        assert kernel.tasks[task.asid] is task

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_bind_cpu_rejects_out_of_range(self, n_cpus):
        kernel = make_kernel(n_cpus)
        task = kernel.create_task("t")
        tasks = dict(kernel.tasks)
        bindings = copy.copy(kernel.machine.cpu_bindings)
        with pytest.raises(ConfigurationError):
            kernel.machine.bind_cpu(task.asid, n_cpus)
        with pytest.raises(ConfigurationError):
            kernel.machine.bind_cpu(task.asid, -1)
        assert kernel.tasks == tasks
        assert kernel.machine.cpu_bindings == bindings
