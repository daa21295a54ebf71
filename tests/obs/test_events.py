"""Tests for the structured event bus."""

import json

import pytest

from repro.hw.stats import Clock
from repro.obs.events import Event, EventBus, load_jsonl, write_jsonl


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def bus(clock):
    return EventBus(clock)


class TestLifecycle:
    def test_disabled_by_default(self, bus):
        assert not bus.enabled
        assert bus.publish("flush", cache="dcache") is None
        assert len(bus._ring) == 0
        assert bus.published == 0

    def test_enable_disable(self, bus):
        bus.enable()
        assert bus.publish("flush") is not None
        bus.disable()
        assert bus.publish("flush") is None
        assert len(bus._ring) == 1

    def test_enable_returns_self(self, bus):
        assert bus.enable() is bus


class TestPublication:
    def test_events_are_clock_stamped_and_sequenced(self, bus, clock):
        bus.enable()
        bus.publish("flush", frame=3)
        clock.advance(100)
        bus.publish("purge", frame=4)
        first, second = bus.events()
        assert (first.seq, first.cycles, first.kind) == (0, 0, "flush")
        assert (second.seq, second.cycles, second.kind) == (1, 100, "purge")
        assert first.detail == {"frame": 3}

    def test_kind_filter(self, bus):
        bus.enable()
        bus.publish("flush")
        bus.publish("purge")
        bus.publish("flush")
        assert len(bus.events("flush")) == 2
        assert len(bus.events("purge")) == 1

    def test_summary(self, bus):
        bus.enable()
        bus.publish("flush")
        bus.publish("flush")
        bus.publish("fault")
        assert bus.summary() == {"flush": 2, "fault": 1}


class TestRing:
    def test_bounded_retention(self, clock):
        bus = EventBus(clock, capacity=4)
        bus.enable()
        for i in range(10):
            bus.publish("flush", i=i)
        assert len(bus._ring) == 4
        assert bus.published == 10
        assert [e.detail["i"] for e in bus.events()] == [6, 7, 8, 9]
        # sequence numbers keep counting across evictions
        assert bus.events()[-1].seq == 9

    def test_enable_can_resize(self, clock):
        bus = EventBus(clock, capacity=2)
        bus.enable(capacity=8)
        for i in range(5):
            bus.publish("flush", i=i)
        assert len(bus._ring) == 5

    def test_clear(self, bus):
        bus.enable()
        bus.publish("flush")
        bus.clear()
        assert len(bus._ring) == 0
        assert bus.published == 1


class TestSubscription:
    def test_subscribers_see_everything(self, clock):
        bus = EventBus(clock, capacity=2)
        bus.enable()
        seen = []
        bus.subscribe(seen.append)
        for i in range(6):
            bus.publish("flush", i=i)
        # the ring kept 2, the subscriber saw all 6
        assert len(seen) == 6
        assert len(bus._ring) == 2

    def test_unsubscribe(self, bus):
        bus.enable()
        seen = []
        callback = bus.subscribe(seen.append)
        bus.publish("flush")
        bus.unsubscribe(callback)
        bus.publish("flush")
        assert len(seen) == 1

    def test_unsubscribe_unknown_is_noop(self, bus):
        bus.unsubscribe(lambda e: None)


class TestSerialization:
    def test_event_to_json_round_trips(self):
        event = Event(seq=7, cycles=42, kind="fault",
                      detail={"asid": 1, "classified": "mapping"})
        data = json.loads(event.to_json())
        assert data == {"seq": 7, "cycles": 42, "kind": "fault",
                        "asid": 1, "classified": "mapping"}

    def test_jsonl_round_trip(self, bus, tmp_path):
        bus.enable()
        bus.publish("flush", frame=1)
        bus.publish("purge", frame=2)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(bus.events(), path) == 2
        loaded = load_jsonl(path)
        assert [d["kind"] for d in loaded] == ["flush", "purge"]
        assert loaded[1]["frame"] == 2


class TestMachineWiring:
    def test_machine_owns_one_bus(self):
        from repro.hw.params import small_machine
        from repro.hw.machine import Machine

        machine = Machine(small_machine())
        assert machine.dcache.bus is machine.bus
        assert machine.icache.bus is machine.bus
        assert machine.tlb.bus is machine.bus
        assert machine.dma.bus is machine.bus
        assert not machine.bus.enabled

    def test_cache_ops_publish(self):
        from repro.hw.params import small_machine
        from repro.hw.machine import Machine
        from repro.hw.stats import Reason

        machine = Machine(small_machine())
        machine.bus.enable()
        machine.dcache.flush_page_frame(0, 0, Reason.DMA_READ)
        machine.dcache.purge_page_frame(0, 0, Reason.NEW_MAPPING)
        flushes = machine.bus.events("flush")
        purges = machine.bus.events("purge")
        assert len(flushes) == 1 and len(purges) == 1
        assert flushes[0].detail["reason"] == "dma-read"
        assert flushes[0].detail["cache"] == "dcache"
        assert flushes[0].detail["cost_cycles"] > 0
        assert purges[0].detail["reason"] == "new-mapping"

    def test_fault_events_carry_classification(self):
        from repro.kernel.kernel import Kernel

        kernel = Kernel()
        kernel.machine.bus.enable()
        task = kernel.create_task("t")
        va = task.allocate_anon(1)
        task.write(va, 0, 1)
        kinds = {e.detail["classified"]
                 for e in kernel.machine.bus.events("fault")}
        assert "mapping" in kinds

    def test_injections_become_events(self):
        from repro.faults.injector import (FaultInjector, FaultPlan,
                                           FaultRule)
        from repro.kernel.kernel import Kernel

        kernel = Kernel()
        kernel.machine.bus.enable()
        plan = FaultPlan(seed=0, rules=(
            FaultRule("tlb.entry.corrupt", rate=1.0, max_fires=1),))
        FaultInjector(plan, kernel.machine.clock).attach_kernel(kernel)
        task = kernel.create_task("t")
        va = task.allocate_anon(1)
        task.write(va, 0, 1)
        task.read(va)
        injections = kernel.machine.bus.events("injection")
        recoveries = kernel.machine.bus.events("tlb-parity-recovery")
        assert len(injections) == 1
        assert injections[0].detail["point"] == "tlb.entry.corrupt"
        assert len(recoveries) == 1
