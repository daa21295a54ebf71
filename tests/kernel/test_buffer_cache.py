"""Tests for the buffer cache and its write-behind policy."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.hw.params import MachineConfig
from repro.kernel.disk import synthetic_block
from repro.kernel.kernel import Kernel
from repro.vm.policy import CONFIG_F


@pytest.fixture
def kernel():
    return Kernel(policy=CONFIG_F, config=MachineConfig(phys_pages=128),
                  with_unix_server=False, buffer_cache_pages=8)


def preload(kernel, file_id=1, npages=2):
    kernel.disk.preload(file_id, npages)
    return file_id


class TestReadPath:
    def test_miss_reads_from_disk(self, kernel):
        fid = preload(kernel)
        frame = kernel.buffer_cache.read_block(fid, 0)
        expected = synthetic_block(fid, 0, 1024)
        assert np.array_equal(kernel.machine.memory.read_page(frame),
                              expected)
        assert kernel.machine.counters.dma_writes == 1

    def test_hit_avoids_disk(self, kernel):
        fid = preload(kernel)
        first = kernel.buffer_cache.read_block(fid, 0)
        second = kernel.buffer_cache.read_block(fid, 0)
        assert first == second
        assert kernel.machine.counters.dma_writes == 1
        assert kernel.buffer_cache.hits == 1


class TestWriteBehind:
    def test_dirty_block_written_after_delay(self, kernel):
        fid = preload(kernel)
        src = kernel.allocate_frame()
        kernel.pmap.zero_fill_page(src)
        kernel.buffer_cache.write_block_from_frame(fid, 0, src)
        assert kernel.machine.counters.dma_reads == 0   # not yet
        for _ in range(kernel.buffer_cache.write_behind_delay + 1):
            kernel.buffer_cache.tick()
        assert kernel.machine.counters.dma_reads == 1   # written behind

    def test_sync_pushes_everything(self, kernel):
        fid = preload(kernel)
        src = kernel.allocate_frame()
        kernel.pmap.zero_fill_page(src)
        kernel.buffer_cache.write_block_from_frame(fid, 1, src)
        kernel.buffer_cache.sync()
        assert kernel.machine.counters.dma_reads == 1
        assert not np.array_equal(kernel.disk.block(fid, 1),
                                  synthetic_block(fid, 1, 1024))

    def test_full_block_write_skips_disk_read(self, kernel):
        # The will_overwrite situation: a full-block write never reads the
        # old block from disk.
        fid = preload(kernel)
        src = kernel.allocate_frame()
        kernel.pmap.zero_fill_page(src)
        kernel.buffer_cache.write_block_from_frame(fid, 0, src)
        assert kernel.machine.counters.dma_writes == 0

    def test_dirtying_uncached_block_rejected(self, kernel):
        with pytest.raises(KernelError):
            kernel.buffer_cache.dirty_block(1, 0)


class TestEviction:
    def test_lru_eviction_at_capacity(self, kernel):
        fid = preload(kernel, npages=2)
        fid2 = 2
        kernel.disk.preload(fid2, 12)
        kernel.buffer_cache.read_block(fid, 0)
        for page in range(12):
            kernel.buffer_cache.read_block(fid2, page)
        assert len(kernel.buffer_cache._entries) <= 8
        # the oldest block was evicted; re-reading hits the disk again
        writes_before = kernel.machine.counters.dma_writes
        kernel.buffer_cache.read_block(fid, 0)
        assert kernel.machine.counters.dma_writes == writes_before + 1

    def test_dirty_eviction_writes_to_disk_first(self, kernel):
        fid = preload(kernel, npages=1)
        src = kernel.allocate_frame()
        kernel.pmap.zero_fill_page(src)
        kernel.buffer_cache.write_block_from_frame(fid, 0, src)
        fid2 = 2
        kernel.disk.preload(fid2, 10)
        for page in range(10):
            kernel.buffer_cache.read_block(fid2, page)
        assert kernel.disk.writes >= 1   # the dirty block got saved

    def test_invalidate_file_frees_frames(self, kernel):
        fid = preload(kernel)
        free_before = len(kernel.free_list)
        kernel.buffer_cache.read_block(fid, 0)
        kernel.buffer_cache.invalidate_file(fid)
        assert len(kernel.free_list) == free_before
        assert not kernel.buffer_cache._entries
