"""A fixed-width bit vector.

The implementation of Section 4 keeps two bit vectors per physical page —
``mapped`` and ``stale`` — with one bit per *cache page*.  The paper notes
that the data structures "lend themselves to efficient state modification"
(marking all mapped pages stale is a bitwise-or followed by a clear); this
class exposes exactly those operations over a single Python integer.
"""

from __future__ import annotations

from repro.errors import AddressError


class BitVector:
    """``width`` bits, each addressable by index, backed by one int."""

    __slots__ = ("width", "_bits")

    def __init__(self, width: int, bits: int = 0):
        if width <= 0:
            raise AddressError("bit vector width must be positive")
        self.width = width
        self._bits = bits & ((1 << width) - 1)

    def _check(self, i: int) -> None:
        if not 0 <= i < self.width:
            raise AddressError(f"bit index {i} out of range [0, {self.width})")

    # The item accessors inline the bounds check: CacheControl reads and
    # writes bits several times per fault.

    def __getitem__(self, i: int) -> bool:
        if not 0 <= i < self.width:
            self._check(i)
        return bool((self._bits >> i) & 1)

    def __setitem__(self, i: int, value: bool) -> None:
        if not 0 <= i < self.width:
            self._check(i)
        if value:
            self._bits |= (1 << i)
        else:
            self._bits &= ~(1 << i)

    def or_with(self, other: "BitVector") -> None:
        """``self |= other`` — used for ``stale = stale | mapped``."""
        if other.width != self.width:
            raise AddressError("bit vector widths differ")
        self._bits |= other._bits

    def clear_all(self) -> None:
        """``bitwise_clear`` from the paper's pseudo-code."""
        self._bits = 0

    def count(self) -> int:
        return self._bits.bit_count()

    def any(self) -> bool:
        return self._bits != 0

    def indices(self) -> list[int]:
        """Indices of the set bits, ascending.

        Walks the set bits lowest first (``bits & -bits`` isolates the
        lowest), so the cost follows the number of set bits, not the
        width: most vectors on the fault path hold zero or one bit.
        """
        out = []
        bits = self._bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def first(self) -> int | None:
        """Index of the lowest set bit, or None if empty."""
        if not self._bits:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    def copy(self) -> "BitVector":
        return BitVector(self.width, self._bits)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitVector) and other.width == self.width
                and other._bits == self._bits)

    def __hash__(self) -> int:
        return hash((self.width, self._bits))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = "".join("1" if self[i] else "0" for i in range(self.width))
        return f"BitVector({bits})"
