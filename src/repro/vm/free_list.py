"""The kernel's free page list, optionally colored by cache page.

Section 5.1 observes that about 80% of the purges remaining in the best
configuration come from "the creation of new mappings when a virtual
address is assigned to a random physical page from the kernel's free page
list", and that "some of these purges could be eliminated by reducing the
associativity of virtual to physical mappings through the use of multiple
free page lists".  The colored mode implements that suggestion: frames are
binned by the cache page of their most recent mapping, and the allocator
prefers a frame whose previous life aligns with the new mapping — making
the new mapping's target cache page non-stale so no purge is needed.
"""

from __future__ import annotations

from collections import deque

from repro.errors import OutOfMemoryError


class FreePageList:
    """FIFO free list with an optional per-cache-color organisation."""

    def __init__(self, ppages: list[int] | range, num_cache_pages: int,
                 colored: bool = False):
        self.num_cache_pages = num_cache_pages
        self.colored = colored
        self._plain: deque[int] = deque(ppages)
        self._by_color: dict[int, deque[int]] = {
            c: deque() for c in range(num_cache_pages)}
        # Frames held in the colour buckets (always 0 on an uncoloured
        # list), so the length is O(1): the pageout daemon asks for it at
        # every syscall.
        self._n_colored = 0
        self.color_hits = 0
        self.color_misses = 0

    def __len__(self) -> int:
        return len(self._plain) + self._n_colored

    def allocate(self, color: int | None = None) -> int:
        """Take a frame, preferring one whose last mapping had cache page
        ``color`` when the list is colored."""
        if self.colored and color is not None:
            bucket = self._by_color[color % self.num_cache_pages]
            if bucket:
                self.color_hits += 1
                self._n_colored -= 1
                return bucket.popleft()
            self.color_misses += 1
        if self._plain:
            # LIFO: the most recently freed frame is reused first, as real
            # kernels do for cache warmth — and which is what makes lazily
            # retained cache state likely to still be relevant at reuse.
            return self._plain.pop()
        # steal from the fullest colored bucket
        fullest = max(self._by_color.values(), key=len, default=None)
        if fullest:
            self._n_colored -= 1
            return fullest.popleft()
        raise OutOfMemoryError("free page list exhausted")

    def allocate_run(self, npages: int) -> list[int]:
        """Take ``npages`` *physically contiguous* frames (superpage
        backing: the physical contiguity is what lets an index-aligned
        virtual run pin the cache index bits).

        Scans the free frames for the lowest-numbered consecutive run;
        container order (FIFO/LIFO warmth, coloring) is irrelevant here —
        contiguity is a property of frame numbers, not of recency.
        """
        if npages <= 0:
            raise ValueError(f"superpage run must be positive, got {npages}")
        free = sorted(self._plain)
        for bucket in self._by_color.values():
            free.extend(bucket)
        free.sort()
        run_start = 0
        for i in range(1, len(free) + 1):
            if i < len(free) and free[i] == free[i - 1] + 1:
                continue
            if i - run_start >= npages:
                frames = free[run_start:run_start + npages]
                taken = set(frames)
                self._plain = deque(p for p in self._plain
                                    if p not in taken)
                for color, bucket in self._by_color.items():
                    if taken & set(bucket):
                        self._by_color[color] = deque(
                            p for p in bucket if p not in taken)
                self._n_colored = sum(map(len, self._by_color.values()))
                return frames
            run_start = i
        raise OutOfMemoryError(
            f"no run of {npages} contiguous free frames")

    def free(self, ppage: int, color: int | None = None) -> None:
        """Return a frame, remembering the cache page of its last mapping."""
        if self.colored and color is not None:
            self._by_color[color % self.num_cache_pages].append(ppage)
            self._n_colored += 1
        else:
            self._plain.append(ppage)
