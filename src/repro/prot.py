"""Memory protection values and their combination rules.

The implementation strategy of Section 4 relies on virtual-memory
protection to trap accesses that require consistency state transitions.
A page therefore carries *two* protections:

* the **VM protection** the operating system granted (read-only text,
  copy-on-write, and so on), and
* the **consistency protection** installed by the cache-control algorithm
  (``NO_ACCESS`` for stale/unmapped cache pages, ``READ_ONLY`` after a
  CPU-read so the next write is caught, ``READ_WRITE`` for the dirty
  mapping).

The hardware enforces their intersection; a fault against the consistency
protection (but allowed by the VM protection) is a *consistency fault*
(Section 5.1), counted separately from mapping faults.
"""

from __future__ import annotations

import enum


class Prot(enum.IntFlag):
    """Access rights, combinable with ``|`` and intersected with ``&``."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    READ_WRITE = READ | WRITE
    READ_EXEC = READ | EXEC
    ALL = READ | WRITE | EXEC

    def allows(self, wanted: "Prot") -> bool:
        """True if this protection permits every right in ``wanted``."""
        return (self & wanted) == wanted


#: access value -> the rights it needs.
_REQUIRED = {"read": Prot.READ, "write": Prot.WRITE, "execute": Prot.EXEC}


class AccessKind(enum.Enum):
    """What a CPU access attempted; maps onto the rights it needs.

    ``need`` holds the same rights as :attr:`required` as a plain
    ``int``: the machine's translate path tests it against a TLB entry's
    ``rights`` with int arithmetic, where ``IntFlag`` operators would
    cost several Python-level enum calls per access.
    """

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"

    def __init__(self, value: str):
        self.need = int(_REQUIRED[value])

    @property
    def required(self) -> Prot:
        return _REQUIRED[self.value]
