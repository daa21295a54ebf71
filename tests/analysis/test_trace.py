"""Tests for the event tracer."""

import pytest

from repro.analysis.trace import Tracer
from repro.hw.params import MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.obs import load_jsonl, write_jsonl
from repro.vm.policy import CONFIG_B, CONFIG_F
from tests.kernel.process_helpers import touch_memory


def make_kernel(policy=CONFIG_F):
    return Kernel(policy=policy, config=MachineConfig(phys_pages=128))


class TestRecording:
    def test_records_faults_flushes_and_dma(self):
        kernel = make_kernel(CONFIG_B)   # unaligned: plenty of activity
        with Tracer(kernel) as tracer:
            kernel.fs.create("/f", size_pages=1, on_disk=True)
            proc = UserProcess(kernel, "p")
            fd = proc.open("/f")
            proc.read_file_page(fd, 0)
            proc.close(fd)
            kernel.shutdown()
        summary = tracer.summary()
        assert summary.get("fault", 0) > 0
        assert summary.get("dma-write", 0) >= 1   # the disk read
        assert summary.get("flush", 0) >= 1

    def test_fault_classification_recorded(self):
        kernel = make_kernel(CONFIG_B)
        with Tracer(kernel) as tracer:
            proc = UserProcess(kernel, "p")
            vpage = proc.task.allocate_anon(1)
            proc.task.write(vpage, 0, 1)
        faults = tracer.filter("fault")
        assert faults
        assert any(f.detail["classified"] == "mapping" for f in faults)

    def test_events_are_ordered_and_timestamped(self):
        kernel = make_kernel()
        with Tracer(kernel) as tracer:
            proc = UserProcess(kernel, "p")
            touch_memory(proc, 2)
        seqs = [e.seq for e in tracer.events]
        cycles = [e.cycles for e in tracer.events]
        assert seqs == sorted(seqs)
        assert cycles == sorted(cycles)

    def test_reason_breakdown_in_summary(self):
        kernel = make_kernel(CONFIG_B)
        with Tracer(kernel) as tracer:
            proc = UserProcess(kernel, "p")
            vpage = proc.task.allocate_anon(1)
            proc.task.write(vpage, 0, 1)
            frame = kernel.pmap.page_table(proc.task.asid).lookup(vpage).ppage
            kernel.disk.write_block(5, 0, frame)
        summary = tracer.summary()
        assert summary.get("flush:dma-read", 0) == 1


class TestNonInterference:
    def test_tracing_does_not_change_behaviour(self):
        def run(traced):
            kernel = make_kernel()
            tracer = Tracer(kernel)
            if traced:
                tracer.attach()
            proc = UserProcess(kernel, "p")
            proc.create("/f")
            fd = proc.open("/f")
            proc.write_file_page(fd, 0)
            proc.close(fd)
            kernel.shutdown()
            return (kernel.machine.clock.cycles,
                    kernel.machine.counters.snapshot())

        assert run(False) == run(True)

    def test_detach_restores_plumbing(self):
        kernel = make_kernel()
        tracer = Tracer(kernel).attach()
        tracer.detach()
        proc = UserProcess(kernel, "p")
        touch_memory(proc, 1)
        assert tracer.events == [] or all(
            e.cycles <= tracer.events[-1].cycles for e in tracer.events)
        # nothing recorded after detach
        count = len(tracer.events)
        touch_memory(proc, 1)
        assert len(tracer.events) == count

    def test_attach_is_idempotent(self):
        kernel = make_kernel()
        tracer = Tracer(kernel)
        assert tracer.attach() is tracer.attach()
        tracer.detach()


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        kernel = make_kernel(CONFIG_B)
        with Tracer(kernel) as tracer:
            proc = UserProcess(kernel, "p")
            touch_memory(proc, 2)
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(tracer.events, path)
        loaded = load_jsonl(path)
        assert written == len(loaded) == len(tracer.events)
        assert loaded[0]["kind"] == tracer.events[0].kind

    def test_frames_touched(self):
        kernel = make_kernel(CONFIG_B)
        with Tracer(kernel) as tracer:
            proc = UserProcess(kernel, "p")
            vpage = proc.task.allocate_anon(1)
            proc.task.write(vpage, 0, 1)
            frame = kernel.pmap.page_table(proc.task.asid).lookup(vpage).ppage
            kernel.disk.write_block(5, 0, frame)
        assert frame in {e.detail["frame"] for e in tracer.events
                         if "frame" in e.detail}
