"""Workload framework.

A workload is a setup phase (creating input files and processes — not
measured) followed by an execute phase (measured).  The harness in
:mod:`repro.analysis.experiments` snapshots the machine clock and counters
around ``execute`` so a run reports exactly what the paper's tables
report: elapsed time, fault counts, and cache-management operation counts
with their cycle costs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.kernel.kernel import Kernel


class Workload(abc.ABC):
    """One benchmark program."""

    #: short identifier used in tables
    name: str = "workload"

    @abc.abstractmethod
    def setup(self, kernel: Kernel) -> None:
        """Create input files and long-lived processes (not measured)."""

    @abc.abstractmethod
    def execute(self, kernel: Kernel) -> None:
        """Run the benchmark (measured)."""

    def run(self, kernel: Kernel) -> None:
        """Setup then execute (for callers that do not split measurement)."""
        self.setup(kernel)
        self.execute(kernel)


@dataclass(frozen=True)
class PaperNumbers:
    """The paper's reported measurements for one benchmark (Table 1)."""

    old_seconds: float
    new_seconds: float
    gain_percent: float
    old_flushes_thousands: float | None = None
    new_flushes_thousands: float | None = None
