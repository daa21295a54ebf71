"""The file system's buffer cache, with write-behind.

Two behaviours of the paper's evaluation depend on this component:

* "all file system reads are satisfied by the Unix buffer cache" for the
  first two benchmarks (no DMA-writes), and
* "the file system's write-behind policy introduces delays between the
  dirtying and subsequent flushing of a buffer cache block, so the dirty
  lines tend to be written back naturally" — which is why DMA-read
  flushes are cheap (the cost model charges less for flushing
  non-resident lines).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING

from repro.errors import DmaTransferError, KernelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class BufferEntry:
    """One cached file block."""

    __slots__ = ("ppage", "dirty")

    def __init__(self, ppage: int):
        self.ppage = ppage
        self.dirty = False


class BufferCache:
    """LRU cache of file blocks in physical frames.

    Blocks are written behind: a dirtied block is queued and pushed to
    disk only after ``write_behind_delay`` further cache operations, or at
    eviction/sync time.
    """

    def __init__(self, kernel: "Kernel", capacity_pages: int = 64,
                 write_behind_delay: int = 24):
        self.kernel = kernel
        self.capacity = capacity_pages
        self.write_behind_delay = write_behind_delay
        self._entries: OrderedDict[tuple[int, int], BufferEntry] = OrderedDict()
        self._write_queue: deque[tuple[tuple[int, int], int]] = deque()
        self._op_count = 0
        self.hits = 0
        self.misses = 0

    # ---- block access ------------------------------------------------------------

    def read_block(self, file_id: int, page: int) -> int:
        """Frame holding the block, reading it from disk if necessary.

        If the disk exhausts its retry budget with transfer-verification
        failures against one frame, the frame itself is suspect: it is
        quarantined and the read is re-issued once into a fresh frame.
        A failure against the replacement propagates (fail-stop).
        """
        frame = self._lookup(file_id, page)
        if frame is not None:
            return frame
        entry = self._install(file_id, page)
        try:
            self.kernel.disk.read_block(file_id, page, entry.ppage)
        except DmaTransferError:
            del self._entries[(file_id, page)]
            self.kernel.quarantine_frame(entry.ppage)
            entry = self._install(file_id, page)
            try:
                self.kernel.disk.read_block(file_id, page, entry.ppage)
            except DmaTransferError:
                del self._entries[(file_id, page)]
                self.kernel.free_frame(entry.ppage)
                raise
        return entry.ppage

    def write_block_from_frame(self, file_id: int, page: int,
                               src_ppage: int) -> int:
        """Copy a whole frame into the block (a full-block file write).

        The block need not be read from disk first: it is completely
        overwritten, which is exactly the ``will_overwrite`` situation of
        Section 4.1.
        """
        frame = self._lookup(file_id, page)
        if frame is None:
            entry = self._install(file_id, page)
            frame = entry.ppage
        self.kernel.pmap.copy_page(src_ppage, frame)
        self._mark_dirty(file_id, page)
        return frame

    def dirty_block(self, file_id: int, page: int) -> None:
        """Note that the block's frame was modified through the CPU."""
        self._mark_dirty(file_id, page)

    # ---- write-behind ---------------------------------------------------------------

    def tick(self) -> None:
        """Advance the write-behind clock; called once per file operation."""
        self._op_count += 1
        self.kernel.pageout.maybe_reclaim()
        while (self._write_queue
               and self._op_count - self._write_queue[0][1]
               >= self.write_behind_delay):
            key, _ = self._write_queue.popleft()
            entry = self._entries.get(key)
            if entry is not None and entry.dirty:
                self.kernel.disk.write_block(key[0], key[1], entry.ppage)
                entry.dirty = False

    def sync(self) -> None:
        """Push every dirty block to disk (end-of-run / unmount)."""
        self._write_queue.clear()
        for key, entry in self._entries.items():
            if entry.dirty:
                self.kernel.disk.write_block(key[0], key[1], entry.ppage)
                entry.dirty = False

    def invalidate_file(self, file_id: int) -> None:
        """Drop a deleted file's blocks without writing them back."""
        for key in [k for k in self._entries if k[0] == file_id]:
            entry = self._entries.pop(key)
            self.kernel.free_frame(entry.ppage)

    # ---- internals ---------------------------------------------------------------------

    def _lookup(self, file_id: int, page: int) -> int | None:
        entry = self._entries.get((file_id, page))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end((file_id, page))
        return entry.ppage

    def _install(self, file_id: int, page: int) -> BufferEntry:
        if (file_id, page) in self._entries:
            raise KernelError("block already cached")
        self._evict_to_capacity()
        entry = BufferEntry(self.kernel.allocate_frame())
        self._entries[(file_id, page)] = entry
        return entry

    def _evict_to_capacity(self) -> None:
        while len(self._entries) >= self.capacity:
            key, entry = self._entries.popitem(last=False)
            if entry.dirty:
                self.kernel.disk.write_block(key[0], key[1], entry.ppage)
            self.kernel.free_frame(entry.ppage)

    def _mark_dirty(self, file_id: int, page: int) -> None:
        entry = self._entries.get((file_id, page))
        if entry is None:
            raise KernelError(f"dirtying uncached block ({file_id}, {page})")
        if not entry.dirty:
            entry.dirty = True
        self._write_queue.append(((file_id, page), self._op_count))
