"""The staleness oracle: an executable form of the paper's correctness
condition.

Section 3.1 restates the whole consistency problem as: *"A correctly
functioning memory system must never transfer stale data to either the CPU
or a DMA device."*  :class:`ShadowMemory` tracks, for every physical word,
the most recently written value in program order — regardless of which
virtual alias or device performed the write.  Every value the memory
system hands to the CPU (through any alias) or to a device (through DMA)
is compared against this record.

A consistency policy is *correct* exactly when a run never raises
:class:`~repro.errors.StaleDataError`.  The fault-injection tests use the
oracle in recording mode to demonstrate that each consistency action in
the algorithm is necessary: disabling the action makes the oracle observe
a stale transfer on a witness workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StaleDataError
from repro.hw.params import WORD_SIZE

#: runs shorter than this are compared as lists of plain ints
#: (:meth:`ShadowMemory.check_run_read`).
SCALAR_RUN_WORDS = 8


_WORD = np.dtype(np.uint64)


def _same_words(expected: np.ndarray, values: np.ndarray) -> bool:
    """True when ``values`` is a uint64 array of ``expected``'s shape
    holding the same words: one byte compare (about 0.4 us on a
    1,024-word page, against about 2.6 us for ``flatnonzero(a != b)``).
    Any other dtype or shape answers False, and the caller's elementwise
    compare decides: an int64 -1 has the bytes of uint64 2**64 - 1 but
    is not that value."""
    return (values.dtype == _WORD and values.shape == expected.shape
            and values.tobytes() == expected.tobytes())


@dataclass(frozen=True)
class Violation:
    """One observed stale transfer."""

    kind: str          # "cpu-read" or "dma-read"
    paddr: int         # physical byte address of the first stale word
    expected: int
    actual: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.kind} at paddr {self.paddr:#x}: "
                f"expected {self.expected:#x}, got {self.actual:#x}")


class ShadowMemory:
    """Program-order shadow of physical memory.

    Args:
        num_pages: physical frames to shadow.
        page_size: bytes per frame.
        record_only: when True, violations are appended to
            :attr:`violations` instead of raising — used by the
            fault-injection tests, which *expect* staleness.  The flag may
            be toggled mid-run: each check consults the current value, so
            a harness can record during a chaos window and fail fast
            outside it.

    Accounting: :attr:`checks` counts *check calls*, not words — a
    page-granularity or run-granularity check counts once however many
    words it compares.  Per-word divergence detail is carried by the
    :class:`Violation` it records instead.
    """

    def __init__(self, num_pages: int, page_size: int,
                 record_only: bool = False):
        self.page_size = page_size
        self.words_per_page = page_size // WORD_SIZE
        self._shadow = np.zeros(num_pages * self.words_per_page,
                                dtype=np.uint64)
        self.record_only = record_only
        self.violations: list[Violation] = []
        self.checks = 0

    # ---- recording writes ----------------------------------------------------

    def note_cpu_write(self, paddr: int, value: int) -> None:
        self._shadow[paddr // WORD_SIZE] = np.uint64(value)

    def note_page_write(self, pa_page_base: int, values: np.ndarray) -> None:
        start = pa_page_base // WORD_SIZE
        self._shadow[start:start + self.words_per_page] = values

    def note_dma_write(self, ppage: int, values: np.ndarray) -> None:
        self.note_page_write(ppage * self.page_size, values)

    def note_run_write(self, paddr: int, values: np.ndarray) -> None:
        start = paddr // WORD_SIZE
        self._shadow[start:start + len(values)] = values

    # ---- checking reads --------------------------------------------------------

    def check_cpu_read(self, paddr: int, value: int) -> None:
        self.checks += 1
        expected = int(self._shadow[paddr // WORD_SIZE])
        if value != expected:
            self._violate("cpu-read", paddr, expected, value)

    def check_page_read(self, pa_page_base: int, values: np.ndarray) -> None:
        self.checks += 1
        start = pa_page_base // WORD_SIZE
        expected = self._shadow[start:start + self.words_per_page]
        if _same_words(expected, values):
            return
        bad = np.flatnonzero(expected != values)
        if len(bad):
            i = int(bad[0])
            self._violate("cpu-read", pa_page_base + i * WORD_SIZE,
                          int(expected[i]), int(values[i]))

    def check_run_read(self, paddr: int, values: np.ndarray) -> None:
        """Compare a run; report its first stale word.

        Runs shorter than :data:`SCALAR_RUN_WORDS` compare as two lists
        of plain ints (no temporary arrays): the request/reply exchanges
        of the Unix server are 2-4 word runs, and for those a numpy
        compare costs more than it compares.  Only a run that differs is
        walked word by word with ``ndarray.item`` to find its first stale
        word.  A longer run takes :func:`_same_words` first and the numpy
        compare only when that fails.  Every branch reports the same
        violation.
        """
        self.checks += 1
        start = paddr // WORD_SIZE
        n = len(values)
        if n < SCALAR_RUN_WORDS:
            shadow = self._shadow
            if shadow[start:start + n].tolist() == values.tolist():
                return
            for i in range(n):
                expected = shadow.item(start + i)
                actual = values.item(i)
                if actual != expected:
                    self._violate("cpu-read", paddr + i * WORD_SIZE,
                                  expected, actual)
                    return
            return
        expected = self._shadow[start:start + n]
        if _same_words(expected, values):
            return
        bad = np.flatnonzero(expected != values)
        if len(bad):
            i = int(bad[0])
            self._violate("cpu-read", paddr + i * WORD_SIZE,
                          int(expected[i]), int(values[i]))

    def check_dma_read(self, ppage: int, values: np.ndarray) -> None:
        self.checks += 1
        start = ppage * self.words_per_page
        expected = self._shadow[start:start + self.words_per_page]
        if _same_words(expected, values):
            return
        bad = np.flatnonzero(expected != values)
        if len(bad):
            i = int(bad[0])
            self._violate("dma-read", ppage * self.page_size + i * WORD_SIZE,
                          int(expected[i]), int(values[i]))

    # ---- misc --------------------------------------------------------------------

    def expected_page(self, pa_page_base: int) -> np.ndarray:
        """The program-order current contents of a whole frame (a copy).

        The fault injector uses this to classify an injected omission at
        injection time: skipping a flush is *consequential* exactly when
        physical memory diverges from this record.
        """
        start = pa_page_base // WORD_SIZE
        return self._shadow[start:start + self.words_per_page].copy()

    @property
    def clean(self) -> bool:
        return not self.violations

    def _violate(self, kind: str, paddr: int, expected: int,
                 actual: int) -> None:
        violation = Violation(kind, paddr, expected, actual)
        self.violations.append(violation)
        if not self.record_only:
            raise StaleDataError(str(violation), paddr=paddr,
                                 expected=expected, actual=actual)
