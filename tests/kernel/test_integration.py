"""End-to-end integration scenarios across the whole stack.

Each scenario interleaves several processes, the Unix server, the buffer
cache, disk DMA and fork/exec — with the staleness oracle checking every
transferred value — and then verifies the *semantic* outcome (file
contents on the platter, process isolation) independently.
"""

import numpy as np
import pytest

from repro.hw.params import MachineConfig
from repro.kernel.disk import synthetic_block
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess, fresh_tokens
from repro.vm.policy import CONFIG_A, CONFIG_F, CONFIG_GLOBAL
from tests.kernel.process_helpers import touch_memory


def make_kernel(policy=CONFIG_F, phys_pages=320):
    return Kernel(policy=policy, config=MachineConfig(phys_pages=phys_pages))


class TestMultiProcessFileSharing:
    @pytest.mark.parametrize("policy", [CONFIG_A, CONFIG_F, CONFIG_GLOBAL],
                             ids=["old", "new", "global"])
    def test_producer_consumer_through_the_file_system(self, policy):
        kernel = make_kernel(policy)
        producer = UserProcess(kernel, "producer")
        consumer = UserProcess(kernel, "consumer")
        producer.create("/pipe/data")
        fd_w = producer.open("/pipe/data")
        pages = [fresh_tokens(1024) for _ in range(4)]
        for i, values in enumerate(pages):
            producer.write_file_page(fd_w, i, values)
            # The consumer reads each page as soon as it is written —
            # served out of the (dirty) buffer cache, not the disk.
            fd_r = consumer.open("/pipe/data")
            got = consumer.read_file_page(fd_r, i)
            assert np.array_equal(got, values)
            consumer.close(fd_r)
        producer.close(fd_w)
        kernel.shutdown()
        meta = kernel.fs.lookup("/pipe/data")
        for i, values in enumerate(pages):
            assert np.array_equal(kernel.disk.block(meta.file_id, i), values)

    def test_interleaved_syscalls_from_many_processes(self):
        kernel = make_kernel()
        procs = [UserProcess(kernel, f"p{i}") for i in range(4)]
        kernel.fs.create("/shared/input", size_pages=2, on_disk=True)
        for round_number in range(3):
            for i, proc in enumerate(procs):
                fd = proc.open("/shared/input")
                proc.read_file_page(fd, round_number % 2)
                proc.close(fd)
                proc.create(f"/out/p{i}/r{round_number}")
                ofd = proc.open(f"/out/p{i}/r{round_number}")
                proc.write_file_page(ofd, 0)
                proc.close(ofd)
        for proc in procs:
            proc.exit()
        kernel.shutdown()
        assert kernel.machine.oracle.clean
        assert len(kernel.fs._files) == 1 + 12

    def test_overwriting_a_file_page_repeatedly(self):
        kernel = make_kernel()
        proc = UserProcess(kernel, "w")
        proc.create("/log")
        fd = proc.open("/log")
        final = None
        for _ in range(10):
            final = fresh_tokens(1024)
            proc.write_file_page(fd, 0, final)
        proc.close(fd)
        kernel.shutdown()
        meta = kernel.fs.lookup("/log")
        assert np.array_equal(kernel.disk.block(meta.file_id, 0), final)


class TestProcessTrees:
    def test_three_generation_fork_chain(self):
        kernel = make_kernel()
        grandparent = UserProcess(kernel, "gp")
        vpage = grandparent.task.allocate_anon(1)
        grandparent.task.write(vpage, 0, 1)
        from repro.kernel.task import fork_task
        parent_task = fork_task(kernel, grandparent.task, "parent")
        child_task = fork_task(kernel, parent_task, "child")
        # Everyone shares until someone writes.
        assert parent_task.read(vpage, 0) == 1
        assert child_task.read(vpage, 0) == 1
        child_task.write(vpage, 0, 3)
        parent_task.write(vpage, 0, 2)
        assert grandparent.task.read(vpage, 0) == 1
        assert parent_task.read(vpage, 0) == 2
        assert child_task.read(vpage, 0) == 3

    def test_compile_farm(self):
        # A shell spawning several compilers concurrently-ish, all reading
        # shared headers and writing distinct objects.
        kernel = make_kernel()
        shell = UserProcess(kernel, "sh")
        cc = kernel.exec_loader.register_program("cc", 3, 2)
        kernel.fs.create("/inc/common.h", size_pages=1, on_disk=True)
        children = [shell.spawn(cc, work_units=1) for _ in range(3)]
        for i, child in enumerate(children):
            hfd = child.open("/inc/common.h")
            child.read_file_page(hfd, 0)
            child.close(hfd)
            child.create(f"/obj/{i}.o")
            ofd = child.open(f"/obj/{i}.o")
            child.write_file_page(ofd, 0)
            child.close(ofd)
        for child in children:
            child.exit()
        shell.exit()
        kernel.shutdown()
        assert kernel.machine.oracle.clean
        assert kernel.machine.counters.d_to_i_copies >= 9  # 3 execs x 3 pages


class TestResourceAccounting:
    def test_no_frame_leak_across_process_lifecycles(self):
        kernel = make_kernel()
        kernel.fs.create("/data", size_pages=2, on_disk=True)
        baseline = None
        for round_number in range(5):
            proc = UserProcess(kernel, f"p{round_number}")
            fd = proc.open("/data")
            proc.read_file_page(fd, 0)
            proc.read_file_page(fd, 1)
            proc.close(fd)
            touch_memory(proc, 3)
            proc.exit()
            free_now = len(kernel.free_list)
            if baseline is None:
                baseline = free_now
            else:
                assert free_now == baseline   # steady state, no leak

    def test_elapsed_time_is_monotone_and_deterministic(self):
        def run():
            kernel = make_kernel()
            proc = UserProcess(kernel, "p")
            proc.create("/f")
            fd = proc.open("/f")
            for i in range(4):
                proc.write_file_page(fd, i)
            proc.close(fd)
            kernel.shutdown()
            return kernel.machine.clock.cycles

        assert run() == run()

    def test_file_contents_bitexact_across_policies(self):
        # Different policies change *when* cache operations happen, never
        # what data ends up on disk.
        platters = []
        for policy in (CONFIG_A, CONFIG_F):
            kernel = make_kernel(policy)
            kernel.fs.create("/in", size_pages=2, on_disk=True)
            proc = UserProcess(kernel, "p")
            proc.copy_file("/in", "/out")
            kernel.shutdown()
            meta = kernel.fs.lookup("/out")
            platters.append([kernel.disk.block(meta.file_id, i)
                             for i in range(2)])
        for a, b in zip(*platters):
            assert np.array_equal(a, b)
