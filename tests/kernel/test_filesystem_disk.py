"""Tests for the file system and the DMA disk."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.hw.params import MachineConfig
from repro.kernel.disk import synthetic_block
from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.vm.policy import CONFIG_F


@pytest.fixture
def kernel():
    return Kernel(policy=CONFIG_F, config=MachineConfig(phys_pages=128),
                  with_unix_server=False)


class TestDisk:
    def test_preload_and_read(self, kernel):
        kernel.disk.preload(1, 2)
        frame = kernel.allocate_frame()
        kernel.disk.read_block(1, 1, frame)
        assert np.array_equal(kernel.machine.memory.read_page(frame),
                              synthetic_block(1, 1, 1024))

    def test_read_of_missing_block_rejected(self, kernel):
        frame = kernel.allocate_frame()
        with pytest.raises(KernelError):
            kernel.disk.read_block(9, 0, frame)

    def test_write_then_read_roundtrip(self, kernel):
        frame = kernel.allocate_frame()
        values = np.full(1024, 3, dtype=np.uint64)
        kernel.pmap.prepare_dma_write(frame)
        kernel.machine.dma.dma_write(frame, values)  # simulate content
        kernel.disk.write_block(7, 0, frame)
        frame2 = kernel.allocate_frame()
        kernel.disk.read_block(7, 0, frame2)
        assert np.array_equal(kernel.machine.memory.read_page(frame2), values)

    def test_write_flushes_cpu_dirty_data_first(self, kernel):
        # The flush-before-DMA-read obligation, end to end.
        task = kernel.create_task("t")
        vpage = task.allocate_anon(1)
        task.write(vpage, 0, 42)   # dirty in the cache only
        frame = kernel.pmap.page_table(task.asid).lookup(vpage).ppage
        kernel.disk.write_block(7, 0, frame)
        assert kernel.disk.block(7, 0)[0] == 42

    def test_discard(self, kernel):
        kernel.disk.preload(1, 1)
        kernel.disk.discard(1)
        assert not kernel.disk.has_block(1, 0)


class TestFileSystem:
    def test_create_and_lookup(self, kernel):
        meta = kernel.fs.create("/a/b.txt", size_pages=2, on_disk=True)
        assert kernel.fs.lookup("/a/b.txt") is meta
        assert kernel.fs.exists("/a/b.txt")
        assert meta.size_pages == 2

    def test_duplicate_create_rejected(self, kernel):
        kernel.fs.create("/x")
        with pytest.raises(KernelError):
            kernel.fs.create("/x")

    def test_lookup_missing_rejected(self, kernel):
        with pytest.raises(KernelError):
            kernel.fs.lookup("/nope")

    def test_read_page_frame(self, kernel):
        kernel.fs.create("/f", size_pages=1, on_disk=True)
        meta = kernel.fs.lookup("/f")
        frame = kernel.fs.read_page_frame("/f", 0)
        assert np.array_equal(kernel.machine.memory.read_page(frame),
                              synthetic_block(meta.file_id, 0, 1024))

    def test_read_beyond_eof_rejected(self, kernel):
        kernel.fs.create("/f", size_pages=1, on_disk=True)
        with pytest.raises(KernelError):
            kernel.fs.read_page_frame("/f", 1)

    def test_write_grows_file(self):
        # A page written past the end, through the Unix server.
        kernel = Kernel(policy=CONFIG_F, config=MachineConfig(phys_pages=128))
        proc = UserProcess(kernel, "w")
        proc.create("/f")
        proc.write_file_page(proc.open("/f"), 2)
        assert kernel.fs.lookup("/f").size_pages == 3

    def test_remove_drops_blocks(self, kernel):
        kernel.fs.create("/f", size_pages=1, on_disk=True)
        meta = kernel.fs.lookup("/f")
        kernel.fs.read_page_frame("/f", 0)
        kernel.fs.remove("/f")
        assert not kernel.fs.exists("/f")
        assert not kernel.disk.has_block(meta.file_id, 0)
