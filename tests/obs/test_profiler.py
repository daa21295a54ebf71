"""Tests for the hierarchical cycle-attribution profiler."""

import pytest

from repro.hw.stats import Clock
from repro.kernel.kernel import Kernel
from repro.obs.profiler import (CycleProfiler, instrument_kernel,
                                profile_run)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def profiler(clock):
    return CycleProfiler(clock)


class TestScopeStack:
    def test_cycles_land_in_the_active_scope(self, profiler, clock):
        profiler.start("run")
        clock.advance(10)                       # root self time
        with profiler.scope("a"):
            clock.advance(100)
            with profiler.scope("b"):
                clock.advance(1000)
        root = profiler.stop()
        a = root.children["a"]
        b = a.children["b"]
        assert root.cycles == 1110
        assert a.cycles == 1100                 # inclusive of b
        assert b.cycles == 1000
        assert root.self_cycles == 10
        assert a.self_cycles == 100

    def test_repeat_scopes_accumulate(self, profiler, clock):
        profiler.start()
        for _ in range(3):
            with profiler.scope("op"):
                clock.advance(5)
        root = profiler.stop()
        op = root.children["op"]
        assert op.cycles == 15
        assert op.count == 3

    def test_siblings_do_not_merge(self, profiler, clock):
        profiler.start()
        with profiler.scope("x"):
            with profiler.scope("leaf"):
                clock.advance(1)
        with profiler.scope("y"):
            with profiler.scope("leaf"):
                clock.advance(2)
        root = profiler.stop()
        assert root.children["x"].children["leaf"].cycles == 1
        assert root.children["y"].children["leaf"].cycles == 2
        # ...but aggregate() sums them by name
        assert profiler.aggregate()["leaf"] == (3, 2)

    def test_stop_closes_open_scopes(self, profiler, clock):
        profiler.start()
        profiler.push("left-open")
        clock.advance(7)
        root = profiler.stop()
        assert root.children["left-open"].cycles == 7
        assert not profiler.running

    def test_double_start_raises(self, profiler):
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()

    def test_stop_without_start_raises(self, profiler):
        with pytest.raises(RuntimeError):
            profiler.stop()

    def test_exception_inside_scope_still_pops(self, profiler, clock):
        profiler.start()
        with pytest.raises(RuntimeError):
            with profiler.scope("doomed"):
                clock.advance(3)
                raise RuntimeError("boom")
        clock.advance(4)
        root = profiler.stop()
        assert root.children["doomed"].cycles == 3
        assert root.self_cycles == 4


class TestInvariants:
    def test_self_cycles_sum_equals_total(self, profiler, clock):
        profiler.start()
        with profiler.scope("a"):
            clock.advance(11)
            with profiler.scope("b"):
                clock.advance(13)
        clock.advance(17)
        with profiler.scope("c"):
            clock.advance(19)
        profiler.stop()
        assert profiler.total_cycles == 60
        assert profiler.self_cycles_sum() == 60

    def test_captures_direct_cycle_bumps(self, profiler, clock):
        # fast paths bypass advance() and bump clock.cycles directly
        profiler.start()
        with profiler.scope("fast"):
            clock.cycles += 42
        profiler.stop()
        assert profiler.root.children["fast"].cycles == 42
        assert profiler.self_cycles_sum() == profiler.total_cycles

    def test_render_mentions_every_scope(self, profiler, clock):
        profiler.start("top")
        with profiler.scope("inner"):
            clock.advance(1)
        profiler.stop()
        table = profiler.render()
        assert "top" in table and "inner" in table


class TestInstrumentation:
    def test_detach_restores_behaviour(self):
        kernel = Kernel()
        profiler = CycleProfiler(kernel.machine.clock)
        profiler.start()
        inst = instrument_kernel(profiler, kernel)
        task = kernel.create_task("t")
        va = task.allocate_anon(1)
        task.write(va, 0, 1)
        inst.restore()
        profiler.stop()
        assert profiler.root.children["kernel.fault"].count > 0
        # after detach, kernel activity must not touch the profiler
        before = profiler.root.children["kernel.fault"].count
        task.write(task.allocate_anon(1), 0, 2)
        assert profiler.root.children["kernel.fault"].count == before
        # and the machine's fault hook must be the kernel's own handler
        assert kernel.machine.fault_handler == kernel.handle_fault

    def test_hw_scopes_reconcile_against_counters(self):
        report = profile_run("afs-bench", scale=0.1)
        for check in report.reconcile():
            assert check.ok, str(check)


class TestProfileRun:
    """Acceptance: per-scope cycles sum to Clock.cycles for all three
    paper workloads."""

    @pytest.mark.parametrize("workload",
                             ["afs-bench", "latex-paper", "kernel-build"])
    def test_self_cycles_sum_to_clock(self, workload):
        report = profile_run(workload, scale=0.2)
        profiler = report.profiler
        assert profiler.total_cycles > 0
        assert profiler.self_cycles_sum() == profiler.total_cycles
        assert report.ok, "\n".join(str(c) for c in report.reconcile())

    def test_render_is_complete(self):
        report = profile_run("afs-bench", scale=0.1)
        text = report.render()
        assert "cycle attribution: afs-bench" in text
        assert "workload:afs-bench" in text
        assert "per-reason breakdown" in text
        assert "reconciliation" in text
        assert "MISMATCH" not in text

    def test_accepts_a_policy_name(self):
        # Like every workload entry point, a registered name will do.
        report = profile_run("latex-paper", policy="A", scale=0.1)
        assert report.policy_name == "A"
        assert report.ok
