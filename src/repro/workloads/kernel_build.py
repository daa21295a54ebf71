"""kernel-build: building a kernel from ~200 source files.

Each compilation forks the shell, execs the compiler (text faults copy
pages from the buffer cache into instruction space), reads the source
file and a few shared headers (mostly buffer-cache hits after warmup),
writes an object file (write-behind DMA later), and exits (releasing
frames back to the free list — the recycling that makes new-mapping
purges the dominant cost in configuration F, Section 5.1).  A final link
step reads every object file and writes the kernel image.

This is the paper's largest benchmark (678.9 s old, 620.9 s new, 8.5%);
ours runs the same operation mix at a documented fraction of the file
sizes.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.workloads.base import PaperNumbers, Workload

PAPER = PaperNumbers(old_seconds=678.9, new_seconds=620.9, gain_percent=8.5)


class KernelBuild(Workload):
    """make: compile n_sources files, then link."""

    name = "kernel-build"

    def __init__(self, scale: float = 1.0, n_sources: int | None = None):
        self.n_sources = (n_sources if n_sources is not None
                          else max(8, round(40 * scale)))
        self.n_headers = max(3, round(8 * scale))
        self.src_pages = 2
        self.obj_pages = 1

    def setup(self, kernel: Kernel) -> None:
        for i in range(self.n_sources):
            kernel.fs.create(f"/sys/src/file{i}.c", size_pages=self.src_pages,
                             on_disk=True)
        for i in range(self.n_headers):
            kernel.fs.create(f"/sys/include/hdr{i}.h", size_pages=1,
                             on_disk=True)
        self.cc = kernel.exec_loader.register_program(
            "cc1", text_pages=4, data_pages=3)
        self.ld = kernel.exec_loader.register_program(
            "ld", text_pages=3, data_pages=2)
        self.make = UserProcess(kernel, "make")

    def execute(self, kernel: Kernel) -> None:
        make = self.make
        for i in range(self.n_sources):
            make.stat(f"/sys/src/file{i}.c")
            cc = make.spawn(self.cc, work_units=12)
            # Read the source and a couple of headers.
            fd = cc.open(f"/sys/src/file{i}.c")
            cc.read_file_pages(fd, self.src_pages, compute_units=8)
            cc.close(fd)
            for h in (i % self.n_headers, (i + 1) % self.n_headers):
                hfd = cc.open(f"/sys/include/hdr{h}.h")
                cc.read_file_page(hfd, 0)
                cc.close(hfd)
            # Write the object file.
            cc.create(f"/sys/obj/file{i}.o")
            ofd = cc.open(f"/sys/obj/file{i}.o")
            cc.write_file_pages(ofd, self.obj_pages)
            cc.close(ofd)
            cc.exit()
        # Link.
        ld = make.spawn(self.ld, work_units=16)
        for i in range(self.n_sources):
            fd = ld.open(f"/sys/obj/file{i}.o")
            ld.read_file_pages(fd, self.obj_pages)
            ld.close(fd)
            ld.compute(4)
        ld.create("/sys/kernel.img")
        kfd = ld.open("/sys/kernel.img")
        ld.write_file_pages(kfd, max(4, self.n_sources // 8))
        ld.close(kfd)
        ld.exit()
