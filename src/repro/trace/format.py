"""Trace format: op alphabet, counters codec, on-disk artifact container.

The op-stream is a flat structured-numpy array with fields
``(op, asid, va, len, aux)``.  Per-opcode field meaning:

===============  =====================================================
opcode           fields
===============  =====================================================
SYNC             ``va`` = clock delta, ``aux`` = sidecar index of the
                 sparse counters delta (or -1 if only the clock moved)
BUS              ``aux`` = sidecar index of ``{"k": kind, "d": detail}``
MEM_WRITE        ``va`` = physical byte address, ``len`` = word count;
                 consumes ``len`` words from the value stream
*_READ_RUN       ``va`` = vaddr, ``aux`` = paddr, ``len`` = word count
*_WRITE_RUN      as READ_RUN; consumes ``len`` values
*_READ_PAGE      ``va`` = va page base, ``aux`` = pa page base
*_WRITE_PAGE     as READ_PAGE, ``len`` = words per page; consumes them
*_ZERO_PAGE      as READ_PAGE (no values: replay regenerates zeros)
*_FLUSH/*_PURGE  ``va`` = cache page, ``aux`` = pa page base,
                 ``asid`` = index into ``REASONS``
*_INVAL          no operands (power-up purge)
===============  =====================================================

``D_*`` opcodes drive the data cache, ``I_*`` the instruction cache.
Word accesses are recorded as runs of length 1: a run of one word is
defined (and property-tested, PR 1) to be observationally equivalent to
the scalar access path, so one opcode covers both.

SYNC ops reconcile *drift*: every change to the shared clock or counters
made between recorded hardware ops (TLB accounting, fault handling,
compute time, DMA setup charges, injection recovery costs) is captured
as a delta rather than by enumerating its sources, so replay needs no
TLB, kernel, oracle or injector.

The artifact container is deliberately deterministic: a sorted-key JSON
header line followed by raw little-endian array bytes.  Compiling the
same workload twice in separate processes yields byte-identical files
(``numpy.savez`` would not: zip members carry timestamps).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, open_input
from repro.hw.params import CacheGeometry, CostModel
from repro.hw.stats import Counters, FaultKind, Reason

FORMAT_VERSION = 1
MAGIC = b"RTRACE1\n"

# ---- opcodes ---------------------------------------------------------------

OP_SYNC = 0
OP_BUS = 1
OP_MEM_WRITE = 2

OP_D_READ_RUN = 3
OP_D_WRITE_RUN = 4
OP_D_READ_PAGE = 5
OP_D_WRITE_PAGE = 6
OP_D_ZERO_PAGE = 7
OP_D_FLUSH = 8
OP_D_PURGE = 9
OP_D_INVAL = 10

OP_I_READ_RUN = 11
OP_I_WRITE_RUN = 12
OP_I_READ_PAGE = 13
OP_I_WRITE_PAGE = 14
OP_I_ZERO_PAGE = 15
OP_I_FLUSH = 16
OP_I_PURGE = 17
OP_I_INVAL = 18

OP_DTYPE = np.dtype([("op", np.int16), ("asid", np.int32),
                     ("va", np.int64), ("len", np.int64),
                     ("aux", np.int64)])

# Flush/purge reasons are encoded by index into this tuple; enum member
# order is part of the format (append-only).
REASONS = tuple(Reason)
REASON_INDEX = {reason: i for i, reason in enumerate(REASONS)}


class TraceFormatError(ReproError):
    """The artifact is not a trace this build can replay."""


# ---- full-fidelity counters codec ------------------------------------------
#
# Counters.snapshot() flattens the per-(cache, reason) attribution into
# totals, which is fine for tables but lossy for replay: restoring from a
# snapshot would collapse the Section 5.1 reason breakdown.  This codec
# round-trips every field exactly.

COUNTER_SCALARS = (
    "read_hits", "read_misses", "write_hits", "write_misses", "write_backs",
    "tlb_hits", "tlb_misses", "dma_reads", "dma_writes", "d_to_i_copies",
    "ipc_page_moves", "pages_zero_filled", "pages_copied",
    "pages_made_uncached", "disk_retries", "tlb_parity_recoveries",
    "frames_quarantined",
)
COUNTER_PAIR_FIELDS = ("page_flushes", "page_purges",
                       "flush_cycles", "purge_cycles")   # (cache, Reason) -> n
COUNTER_KIND_FIELDS = ("faults", "fault_cycles")          # FaultKind -> n


def encode_counters(counters: Counters) -> dict:
    """Lossless, JSON-able image of a :class:`Counters` instance."""
    state: dict = {name: getattr(counters, name) for name in COUNTER_SCALARS}
    for name in COUNTER_PAIR_FIELDS:
        state[name] = {f"{cache}|{reason.value}": n
                       for (cache, reason), n in getattr(counters, name).items()
                       if n}
    for name in COUNTER_KIND_FIELDS:
        state[name] = {kind.value: n
                       for kind, n in getattr(counters, name).items() if n}
    return state


def decode_counters(state: dict) -> Counters:
    """Rebuild a :class:`Counters` from :func:`encode_counters` output."""
    counters = Counters()
    apply_counters_delta(counters, state)
    return counters


def diff_counters(before: dict, after: dict) -> dict:
    """Sparse delta such that ``before + delta == after`` (all-additive)."""
    delta: dict = {}
    for name in COUNTER_SCALARS:
        d = after[name] - before[name]
        if d:
            delta[name] = d
    for name in COUNTER_PAIR_FIELDS + COUNTER_KIND_FIELDS:
        b, a = before[name], after[name]
        sub = {key: a.get(key, 0) - b.get(key, 0)
               for key in set(a) | set(b)
               if a.get(key, 0) != b.get(key, 0)}
        if sub:
            delta[name] = sub
    return delta


def apply_counters_delta(counters: Counters, delta: dict) -> None:
    """Add a :func:`diff_counters` delta (or a full encoded state) in place."""
    for name, value in delta.items():
        if name in COUNTER_PAIR_FIELDS:
            counter = getattr(counters, name)
            for key, n in value.items():
                cache, reason = key.split("|", 1)
                counter[(cache, Reason(reason))] += n
        elif name in COUNTER_KIND_FIELDS:
            counter = getattr(counters, name)
            for key, n in value.items():
                counter[FaultKind(key)] += n
        else:
            setattr(counters, name, getattr(counters, name) + value)


# ---- machine-config codec ---------------------------------------------------

def encode_geometry(geo: CacheGeometry) -> dict:
    return {"size": geo.size, "line_size": geo.line_size,
            "page_size": geo.page_size, "associativity": geo.associativity,
            "physically_indexed": geo.physically_indexed,
            "write_through": geo.write_through}


def encode_cost(cost: CostModel) -> dict:
    from dataclasses import asdict
    return asdict(cost)


# ---- the trace --------------------------------------------------------------

@dataclass
class CacheImage:
    """Captured state of one cache at the start of the recorded window."""

    tags: np.ndarray     # (ways, sets) int64
    dirty: np.ndarray    # (ways, sets) bool
    data: np.ndarray     # (ways, sets, words_per_line) uint64
    lru: np.ndarray      # (ways, sets) int64
    tick: int


@dataclass
class Trace:
    """A compiled workload run.

    ``ops``/``values``/``sidecar`` are the program; the ``start_*``
    fields are the machine image it executes against; ``end_clock`` /
    ``end_counters`` / ``end_events_sha256`` are the expected outcome the
    replayer verifies against (the equivalence gate).
    """

    meta: dict                   # workload/policy/scale/seed/inject/conform
    config: dict                 # dcache/icache geometry, cost model, sizes
    ops: np.ndarray              # OP_DTYPE
    values: np.ndarray           # uint64 word stream consumed by write ops
    sidecar: list                # JSON-able entries referenced by ``aux``
    start_memory: np.ndarray     # uint64 physical memory words
    start_dcache: CacheImage
    start_icache: CacheImage
    start_clock: int
    start_counters: dict         # encode_counters image
    end_clock: int
    end_counters: dict
    n_events: int = 0
    end_events_sha256: str | None = None
    events_jsonl: str | None = field(default=None, repr=False)  # not persisted


def _cache_arrays(prefix: str, image: CacheImage) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}_tags", image.tags),
            (f"{prefix}_dirty", image.dirty.astype(np.uint8)),
            (f"{prefix}_data", image.data),
            (f"{prefix}_lru", image.lru)]


def save_trace(path: str, trace: Trace) -> None:
    """Serialize deterministically: same trace -> same bytes, always."""
    arrays = ([("ops", trace.ops), ("values", trace.values),
               ("memory", trace.start_memory)]
              + _cache_arrays("dcache", trace.start_dcache)
              + _cache_arrays("icache", trace.start_icache))
    sidecar_bytes = json.dumps(trace.sidecar, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
    header = {
        "format": FORMAT_VERSION,
        "meta": trace.meta,
        "config": trace.config,
        "start": {"clock": trace.start_clock,
                  "counters": trace.start_counters,
                  "tick_d": trace.start_dcache.tick,
                  "tick_i": trace.start_icache.tick},
        "end": {"clock": trace.end_clock,
                "counters": trace.end_counters,
                "events": trace.n_events,
                "events_sha256": trace.end_events_sha256},
        "arrays": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in arrays],
        "sidecar_bytes": len(sidecar_bytes),
    }
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8"))
    buf.write(b"\n")
    for _, arr in arrays:
        buf.write(np.ascontiguousarray(arr).tobytes())
    buf.write(sidecar_bytes)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


_ARRAY_DTYPES = {
    "ops": OP_DTYPE, "values": np.uint64, "memory": np.uint64,
    "dcache_tags": np.int64, "dcache_dirty": np.uint8,
    "dcache_data": np.uint64, "dcache_lru": np.int64,
    "icache_tags": np.int64, "icache_dirty": np.uint8,
    "icache_data": np.uint64, "icache_lru": np.int64,
}


def load_trace(path: str) -> Trace:
    """Read an artifact written by :func:`save_trace`.

    A file that is not a trace, or one cut short or garbled in its
    header, array region or sidecar, raises :class:`TraceFormatError`; a
    file that cannot be opened raises :class:`InputFileError`.
    """
    with open_input(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(MAGIC):
        raise TraceFormatError(f"{path} is not a trace artifact")
    nl = blob.find(b"\n", len(MAGIC))
    if nl < 0:
        raise TraceFormatError(f"{path}: header is truncated")
    try:
        header = json.loads(blob[len(MAGIC):nl].decode("utf-8"))
    except ValueError as exc:
        raise TraceFormatError(f"{path}: header is not JSON ({exc})") \
            from None
    if header.get("format") != FORMAT_VERSION:
        raise TraceFormatError(
            f"trace format {header.get('format')} unsupported "
            f"(this build reads {FORMAT_VERSION})")
    offset = nl + 1
    arrays = {}
    for spec in header["arrays"]:
        name, shape = spec["name"], tuple(spec["shape"])
        dtype = np.dtype(_ARRAY_DTYPES[name])
        count = int(np.prod(shape))
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(blob):
            raise TraceFormatError(f"{path}: array {name!r} is truncated")
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                     offset=offset).reshape(shape)
        offset += nbytes
    if len(blob) - offset != header["sidecar_bytes"]:
        raise TraceFormatError(
            f"{path}: sidecar holds {len(blob) - offset} bytes, header "
            f"says {header['sidecar_bytes']}")
    try:
        sidecar = json.loads(blob[offset:].decode("utf-8"))
    except ValueError as exc:
        raise TraceFormatError(f"{path}: sidecar is not JSON ({exc})") \
            from None

    def image(prefix: str, tick: int) -> CacheImage:
        return CacheImage(tags=arrays[f"{prefix}_tags"].copy(),
                          dirty=arrays[f"{prefix}_dirty"].astype(bool),
                          data=arrays[f"{prefix}_data"].copy(),
                          lru=arrays[f"{prefix}_lru"].copy(),
                          tick=tick)

    start, end = header["start"], header["end"]
    return Trace(
        meta=header["meta"], config=header["config"],
        ops=arrays["ops"], values=arrays["values"], sidecar=sidecar,
        start_memory=arrays["memory"],
        start_dcache=image("dcache", start["tick_d"]),
        start_icache=image("icache", start["tick_i"]),
        start_clock=start["clock"], start_counters=start["counters"],
        end_clock=end["clock"], end_counters=end["counters"],
        n_events=end["events"], end_events_sha256=end["events_sha256"],
    )
