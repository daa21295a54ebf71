"""User processes: the workload-facing convenience layer.

A :class:`UserProcess` couples a task with its Unix-server channel and
provides the file and process operations the benchmark programs are
written in terms of (open/read/write/stat/close, spawn of a program,
private memory).  All data movement happens through the simulated machine
— CPU loads and stores through the caches, IPC page remaps, buffer-cache
copies and disk DMA — so every consistency obligation of the paper arises
naturally from running a workload.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import KernelError
from repro.kernel.exec_loader import Program
from repro.kernel.task import Task, fork_task

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

_token_counter = itertools.count(0x1000)

# Cycles of user computation charged per "work unit" (e.g. formatting a
# page of text, compiling a chunk of source).
COMPUTE_UNIT_CYCLES = 20_000


def fresh_tokens(words: int) -> np.ndarray:
    """A page of distinguishable data for a write (unique word values so
    the staleness oracle can tell every version apart)."""
    base = np.uint64(next(_token_counter) << 16)
    return base + np.arange(words, dtype=np.uint64)


class UserProcess:
    """A Unix process served by the user-level server."""

    def __init__(self, kernel: "Kernel", name: str | None = None,
                 task: Task | None = None):
        self.kernel = kernel
        self.task = task if task is not None else kernel.create_task(name)
        kernel.unix_server.attach(self.task)
        self.alive = True

    # ---- file operations ---------------------------------------------------------

    def create(self, name: str) -> None:
        self.kernel.unix_server.sys_create(self.task, name)

    def open(self, name: str) -> int:
        return self.kernel.unix_server.sys_open(self.task, name)

    def close(self, fd: int) -> None:
        self.kernel.unix_server.sys_close(self.task, fd)

    def stat(self, name: str) -> None:
        self.kernel.unix_server.sys_stat(self.task, name)

    def remove(self, name: str) -> None:
        self.kernel.unix_server.sys_remove(self.task, name)

    def read_file_page(self, fd: int, page: int) -> np.ndarray:
        """Read one file page: the server IPC-transfers it here, the
        process consumes it as one block run through the cache, then
        releases it."""
        vpage = self.kernel.unix_server.sys_read_page(self.task, fd, page)
        values = self.task.read_block(
            vpage, 0, self.kernel.machine.memory.words_per_page)
        self.task.unmap(vpage)
        return values

    def read_file_pages(self, fd: int, n_pages: int, start: int = 0,
                        compute_units: int = 0) -> list[np.ndarray]:
        """Read ``n_pages`` consecutive file pages, optionally charging
        ``compute_units`` of work after each (the common workload rhythm)."""
        pages = []
        for page in range(start, start + n_pages):
            pages.append(self.read_file_page(fd, page))
            if compute_units:
                self.compute(compute_units)
        return pages

    def write_file_page(self, fd: int, page: int,
                        values: np.ndarray | None = None) -> None:
        """Write one file page: generate the data in private memory, then
        move the page to the server."""
        if values is None:
            values = fresh_tokens(self.kernel.machine.memory.words_per_page)
        vpage = self.task.allocate_anon(1)
        self.task.write_block(vpage, 0, values)
        self.kernel.unix_server.sys_write_page(self.task, fd, page, vpage)

    def write_file_pages(self, fd: int, n_pages: int, start: int = 0,
                         compute_units: int = 0) -> None:
        """Write ``n_pages`` consecutive file pages of fresh tokens."""
        for page in range(start, start + n_pages):
            if compute_units:
                self.compute(compute_units)
            self.write_file_page(fd, page)

    def copy_file(self, src_name: str, dst_name: str) -> None:
        """cp: read every page of one file, write it to another."""
        src_meta = self.kernel.fs.lookup(src_name)
        if not self.kernel.fs.exists(dst_name):
            self.create(dst_name)
        src_fd = self.open(src_name)
        dst_fd = self.open(dst_name)
        for page in range(src_meta.size_pages):
            values = self.read_file_page(src_fd, page)
            vpage = self.task.allocate_anon(1)
            self.task.write_block(vpage, 0, values)
            self.kernel.unix_server.sys_write_page(self.task, dst_fd, page,
                                                   vpage)
        self.close(src_fd)
        self.close(dst_fd)

    # ---- computation -------------------------------------------------------------------

    def compute(self, units: int = 1) -> None:
        self.kernel.machine.consume(units * COMPUTE_UNIT_CYCLES)

    # ---- process operations --------------------------------------------------------------

    def spawn(self, program: Program,
              work_units: int = 1) -> "UserProcess":
        """fork + exec: create a child running ``program``."""
        child_task = fork_task(self.kernel, self.task,
                               name=f"{program.name}")
        child = UserProcess(self.kernel, task=child_task)
        text_start, data_start = self.kernel.exec_loader.exec_into(
            child_task, program)
        # Run the program: fetch each text page (faulting it in through
        # the buffer cache and the d->i copy path) and touch the data.
        for i in range(program.text_pages):
            child_task.ifetch(text_start + i)
            child_task.ifetch(text_start + i, word=7)
        for i in range(max(program.data_pages, 1)):
            child_task.write(data_start + i, 0, next(_token_counter))
        child.compute(work_units)
        return child

    def exit(self) -> None:
        """Terminate: detach from the server and release the task."""
        if not self.alive:
            raise KernelError(f"{self.task.name} already exited")
        self.alive = False
        self.kernel.unix_server.detach(self.task)
        self.kernel.destroy_task(self.task)
