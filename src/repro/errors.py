"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.

Two orthogonal distinctions matter to the fault-injection subsystem:

* *transient* vs *terminal* — a :class:`TransientError` models a device
  fault that a bounded retry may clear (a busy disk, a corrupted DMA
  transfer caught by the device's completion status); everything else is
  terminal for the operation that raised it.
* *detected* vs *silent* — every error in this hierarchy is a detection.
  The chaos harness treats a run that ends in a typed ``ReproError`` as a
  *detected* fault; only a run that completes with stale data and no
  record anywhere would violate the paper's correctness condition.
"""

from __future__ import annotations


def _render_context(context: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in context.items() if v is not None)


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class InputFileError(ConfigurationError):
    """An input file named by the caller (a trace artifact, a golden
    event trace, a farm spec batch) cannot be opened.

    A :class:`ConfigurationError`, so the command line reports it as bad
    input — one line and exit status 2 — rather than as a traceback.
    """


def open_input(path, mode: str = "r"):
    """``open(path, mode)``, raising :class:`InputFileError` (with the
    operating system's reason) when the file cannot be opened."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise InputFileError(
            f"cannot read {path}: {exc.strerror or exc}") from None


class AddressError(ReproError):
    """An address was out of range or mis-aligned for the requested operation."""


class ProtectionError(ReproError):
    """An access violated the currently installed protection and could not be
    resolved by the fault handler."""


class StaleDataError(ReproError):
    """The staleness oracle observed the memory system transferring a stale
    value to the CPU or a DMA device.

    This is the executable form of the paper's correctness condition: a
    correct consistency policy must never cause this error to be raised.
    """

    def __init__(self, message: str, *, paddr: int | None = None,
                 expected: int | None = None, actual: int | None = None):
        super().__init__(message)
        self.paddr = paddr
        self.expected = expected
        self.actual = actual


class ConformanceError(ReproError):
    """The lockstep conformance engine observed the simulator diverge from
    the Table 2 model (see docs/conformance.md).

    Either the implementation performed an access for which the model still
    required a consistency action (``kind="missed-action"``), or the
    bookkeeping state contradicts the model in a dangerous direction
    (``kind="state-divergence"``: the model says a line is STALE or DIRTY
    and the implementation disagrees).  Carries the observed event prefix
    leading up to the divergence so the failure can be replayed.
    """

    def __init__(self, message: str, *, kind: str | None = None,
                 frame: int | None = None, cache_page: int | None = None,
                 event_index: int | None = None, cpu: int | None = None,
                 prefix: tuple = ()):
        rendered = _render_context({"kind": kind, "frame": frame,
                                    "cache_page": cache_page,
                                    "event": event_index, "cpu": cpu})
        super().__init__(f"{message} [{rendered}]" if rendered else message)
        self.kind = kind
        self.frame = frame
        self.cache_page = cache_page
        self.event_index = event_index
        self.cpu = cpu
        #: the observed events leading up to (and including) the divergence;
        #: may be a bounded tail when the monitor caps its event log
        self.prefix = tuple(prefix)


class FaultLoopError(ReproError):
    """A memory access kept faulting after repeated resolution attempts,
    indicating a broken consistency policy or fault handler.

    Carries the diagnostics of the stuck access so the failure can be
    attributed without reproducing it: the address space, virtual address,
    access kind, and how many resolution attempts the hardware made.
    """

    def __init__(self, message: str, *, asid: int | None = None,
                 vaddr: int | None = None, access: str | None = None,
                 attempts: int | None = None):
        self.context = {"asid": asid, "vaddr": vaddr, "access": access,
                        "attempts": attempts}
        rendered = _render_context({"asid": asid,
                                    "vaddr": hex(vaddr) if vaddr is not None
                                    else None,
                                    "access": access, "attempts": attempts})
        super().__init__(f"{message} [{rendered}]" if rendered else message)
        self.asid = asid
        self.vaddr = vaddr
        self.access = access
        self.attempts = attempts


class OutOfMemoryError(ReproError):
    """The physical free page list was exhausted."""


class KernelError(ReproError):
    """An operating-system level operation failed (bad task, bad file...).

    Optional keyword context (e.g. ``file_id=3, page=7``) is rendered into
    the message and kept on :attr:`context` for structured handling.
    """

    def __init__(self, message: str, **context):
        rendered = _render_context(context)
        super().__init__(f"{message} [{rendered}]" if rendered else message)
        self.context = context


class TransientError(ReproError):
    """A device-level fault that a bounded retry may clear.

    Raisers attach enough context for the retry loop to re-issue the
    operation; the loop charges each retry's backoff to the simulated
    clock so recovery shows up in cycle counts.
    """

    def __init__(self, message: str, **context):
        rendered = _render_context(context)
        super().__init__(f"{message} [{rendered}]" if rendered else message)
        self.context = context
        #: attempts consumed when the retry budget was exhausted (set by
        #: the retry loop before re-raising), else None
        self.attempts: int | None = None
        #: the audit record of the injection that caused this error, when
        #: fault injection is active (lets the retry loop resolve it)
        self.record = None


class DiskIOError(TransientError, KernelError):
    """A disk read or write failed at the device (busy, media CRC...).

    Transient: the disk's retry loop re-issues the transfer with backoff.
    If the retry budget is exhausted the last instance propagates with
    :attr:`TransientError.attempts` set.
    """


class DmaTransferError(TransientError):
    """A DMA transfer failed verification at completion (corrupted or
    partial data, as reported by the device's completion status).

    The caller must treat the target frame's contents as undefined and
    either retry the transfer or quarantine the frame.
    """

    def __init__(self, message: str, *, ppage: int | None = None,
                 kind: str | None = None, words: int | None = None,
                 **context):
        super().__init__(message, ppage=ppage, kind=kind, words=words,
                         **context)
        self.ppage = ppage
        self.kind = kind
        self.words = words
