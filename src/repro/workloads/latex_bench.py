"""latex-bench: formatting a version of the paper with TeX.

A single long-running process reads the document and style files, makes
two compute-heavy formatting passes (TeX resolves cross references on the
second pass), and writes the .dvi, .log and .aux outputs.  Relative to
afs-bench this workload is compute-dominated with moderate file traffic —
which is why the paper reports a smaller (5%) improvement for it.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.process import UserProcess
from repro.workloads.base import PaperNumbers, Workload

PAPER = PaperNumbers(old_seconds=5.8, new_seconds=5.5, gain_percent=5.0)


class LatexBench(Workload):
    """Format a paper: two passes over the sources, three output files."""

    name = "latex-paper"

    def __init__(self, scale: float = 1.0):
        self.tex_pages = max(2, round(6 * scale))
        self.style_pages = max(1, round(3 * scale))
        self.dvi_pages = max(2, round(4 * scale))
        self.compute_per_page = 14

    def setup(self, kernel: Kernel) -> None:
        kernel.fs.create("/tex/paper.tex", size_pages=self.tex_pages,
                         on_disk=True)
        kernel.fs.create("/tex/asplos.sty", size_pages=self.style_pages,
                         on_disk=True)
        self.latex = kernel.exec_loader.register_program(
            "latex", text_pages=5, data_pages=4)
        self.shell = UserProcess(kernel, "tex-shell")

    def execute(self, kernel: Kernel) -> None:
        proc = self.shell.spawn(self.latex, work_units=2)
        for pass_number in range(2):
            # Read the style file and the document.
            for name, pages in (("/tex/asplos.sty", self.style_pages),
                                ("/tex/paper.tex", self.tex_pages)):
                fd = proc.open(name)
                proc.read_file_pages(fd, pages,
                                     compute_units=self.compute_per_page)
                proc.close(fd)
            # The second pass also reads the .aux from the first.
            if pass_number == 1:
                fd = proc.open("/tex/paper.aux")
                proc.read_file_page(fd, 0)
                proc.close(fd)
            # Write the cross-reference file.
            if pass_number == 0:
                proc.create("/tex/paper.aux")
            fd = proc.open("/tex/paper.aux")
            proc.write_file_page(fd, 0)
            proc.close(fd)
        # Emit the outputs.
        proc.create("/tex/paper.dvi")
        fd = proc.open("/tex/paper.dvi")
        proc.write_file_pages(fd, self.dvi_pages,
                              compute_units=self.compute_per_page)
        proc.close(fd)
        proc.create("/tex/paper.log")
        fd = proc.open("/tex/paper.log")
        proc.write_file_page(fd, 0)
        proc.close(fd)
        proc.exit()
