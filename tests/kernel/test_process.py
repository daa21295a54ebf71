"""Tests for the UserProcess convenience layer."""

import numpy as np
import pytest

from repro.hw.params import MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess, fresh_tokens
from repro.vm.policy import CONFIG_F
from tests.kernel.process_helpers import touch_memory


@pytest.fixture
def kernel():
    return Kernel(policy=CONFIG_F, config=MachineConfig(phys_pages=192))


class TestFreshTokens:
    def test_unique_across_calls(self):
        a = fresh_tokens(16)
        b = fresh_tokens(16)
        assert not np.array_equal(a, b)

    def test_unique_within_a_page(self):
        values = fresh_tokens(1024)
        assert len(np.unique(values)) == 1024


class TestHelpers:
    def test_compute_advances_the_clock(self, kernel):
        proc = UserProcess(kernel, "p")
        before = kernel.machine.clock.cycles
        proc.compute(3)
        assert kernel.machine.clock.cycles - before >= 3 * 20_000

    def test_touch_memory_dirties_pages(self, kernel):
        proc = UserProcess(kernel, "p")
        vpage = touch_memory(proc, 2, writes_per_page=3)
        assert proc.task.read(vpage, 0) != 0
        assert proc.task.read(vpage + 1, 2) != 0

    def test_copy_file_creates_destination(self, kernel):
        kernel.fs.create("/a", size_pages=1, on_disk=True)
        proc = UserProcess(kernel, "p")
        proc.copy_file("/a", "/b")
        assert kernel.fs.exists("/b")
        assert kernel.fs.lookup("/b").size_pages == 1

    def test_spawn_creates_live_child_with_own_channel(self, kernel):
        program = kernel.exec_loader.register_program("prog", 2, 1)
        parent = UserProcess(kernel, "parent")
        child = parent.spawn(program)
        assert child.alive
        assert child.task.asid != parent.task.asid
        assert child.task.asid in kernel.unix_server._channels
        # the child can make syscalls immediately
        child.create("/child-made-this")
        assert kernel.fs.exists("/child-made-this")

    def test_write_file_page_default_payload(self, kernel):
        proc = UserProcess(kernel, "p")
        proc.create("/f")
        fd = proc.open("/f")
        proc.write_file_page(fd, 0)     # generated tokens
        data = proc.read_file_page(fd, 0)
        assert data.any()
