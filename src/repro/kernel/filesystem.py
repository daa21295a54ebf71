"""A minimal file system over the disk and buffer cache.

Just enough structure for the evaluation's workloads: named files with
page-granularity contents, directories as name prefixes, and metadata
operations (stat) that touch server data structures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import KernelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class FileMeta:
    """Metadata for one file."""

    file_id: int
    name: str
    size_pages: int


class FileSystem:
    """Name -> file mapping with buffer-cache mediated block access."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._files: dict[str, FileMeta] = {}
        self._ids = itertools.count(1)

    # ---- namespace ---------------------------------------------------------------

    def create(self, name: str, size_pages: int = 0,
               on_disk: bool = False) -> FileMeta:
        """Create a file.  With ``on_disk`` the blocks are synthesized on
        the platter (a file that predates the benchmark); otherwise the
        file starts empty and grows as blocks are written."""
        if name in self._files:
            raise KernelError(f"file {name!r} already exists")
        meta = FileMeta(next(self._ids), name, size_pages)
        self._files[name] = meta
        if on_disk and size_pages:
            self.kernel.disk.preload(meta.file_id, size_pages)
        return meta

    def lookup(self, name: str) -> FileMeta:
        try:
            return self._files[name]
        except KeyError:
            raise KernelError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def remove(self, name: str) -> None:
        meta = self.lookup(name)
        self.kernel.buffer_cache.invalidate_file(meta.file_id)
        self.kernel.disk.discard(meta.file_id)
        del self._files[name]

    # ---- block access -----------------------------------------------------------------

    def read_page_frame(self, name: str, page: int) -> int:
        """Frame holding one page of the file (via the buffer cache)."""
        meta = self.lookup(name)
        if page >= meta.size_pages:
            raise KernelError(f"{name!r}: page {page} beyond EOF")
        frame = self.kernel.buffer_cache.read_block(meta.file_id, page)
        self.kernel.buffer_cache.tick()
        return frame
