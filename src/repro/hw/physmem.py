"""Word-addressable physical memory.

Memory contents are simulated for real: every CPU store, cache write-back
and DMA transfer moves actual word values, so inconsistencies (stale reads,
lost write-backs, shadowed DMA data) manifest as wrong values rather than
as abstract flags.  The staleness oracle (:mod:`repro.core.oracle`)
exploits this to check the paper's correctness condition directly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AddressError
from repro.hw.params import WORD_SIZE


class PhysicalMemory:
    """A flat array of physical page frames holding 32-bit words.

    Addresses given to this class are *physical byte addresses*; they must
    be word aligned for word operations and page aligned for page
    operations.
    """

    def __init__(self, num_pages: int, page_size: int):
        self.num_pages = num_pages
        self.page_size = page_size
        self.words_per_page = page_size // WORD_SIZE
        self.size = num_pages * page_size
        self._words = np.zeros(num_pages * self.words_per_page, dtype=np.uint64)

    # ---- address helpers ---------------------------------------------------

    def _word_index(self, paddr: int) -> int:
        if paddr % WORD_SIZE:
            raise AddressError(f"physical address {paddr:#x} is not word aligned")
        if not 0 <= paddr < self.size:
            raise AddressError(f"physical address {paddr:#x} out of range")
        return paddr // WORD_SIZE

    def _page_word_range(self, ppage: int) -> slice:
        if not 0 <= ppage < self.num_pages:
            raise AddressError(f"physical page {ppage} out of range")
        start = ppage * self.words_per_page
        return slice(start, start + self.words_per_page)

    def page_base(self, ppage: int) -> int:
        """Physical byte address of the first byte of frame ``ppage``."""
        if not 0 <= ppage < self.num_pages:
            raise AddressError(f"physical page {ppage} out of range")
        return ppage * self.page_size

    # ---- word access -------------------------------------------------------

    def read_word(self, paddr: int) -> int:
        return int(self._words[self._word_index(paddr)])

    def write_word(self, paddr: int, value: int) -> None:
        self._words[self._word_index(paddr)] = np.uint64(value)

    # ---- contiguous runs (used by the block access engine) ------------------

    def read_words(self, paddr: int, n_words: int) -> np.ndarray:
        idx = self._word_index(paddr)
        if idx + n_words > len(self._words):
            raise AddressError(f"run of {n_words} words at {paddr:#x} "
                               "runs off the end of memory")
        return self._words[idx:idx + n_words].copy()

    def write_words(self, paddr: int, values: np.ndarray) -> None:
        idx = self._word_index(paddr)
        if idx + len(values) > len(self._words):
            raise AddressError(f"run of {len(values)} words at {paddr:#x} "
                               "runs off the end of memory")
        self._words[idx:idx + len(values)] = values

    # ---- line access (used by the caches for fills and write-backs) --------

    def read_line(self, paddr: int, words_per_line: int) -> np.ndarray:
        idx = self._word_index(paddr)
        return self._words[idx:idx + words_per_line].copy()

    def write_line(self, paddr: int, values: np.ndarray) -> None:
        idx = self._word_index(paddr)
        self._words[idx:idx + len(values)] = values

    def write_lines(self, tags: np.ndarray, values: np.ndarray,
                    words_per_line: int) -> None:
        """Scatter whole cache lines by physical line number (vectorized
        write-backs).  With duplicate tags the store order is unspecified;
        callers needing last-writer-wins must deduplicate first."""
        self._words.reshape(-1, words_per_line)[tags] = values

    # ---- page access (used by DMA and by vectorized cache page ops) --------

    def read_page(self, ppage: int) -> np.ndarray:
        return self._words[self._page_word_range(ppage)].copy()

    def write_page(self, ppage: int, values: np.ndarray) -> None:
        rng = self._page_word_range(ppage)
        if len(values) != self.words_per_page:
            raise AddressError("page write requires exactly one page of words")
        self._words[rng] = values

    def zero_page(self, ppage: int) -> None:
        self._words[self._page_word_range(ppage)] = 0
