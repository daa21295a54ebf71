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
header line followed by raw little-endian array bytes and the sidecar.
Compiling the same workload twice in separate processes yields
byte-identical files (``numpy.savez`` would not: zip members carry
timestamps).  The header carries the sha256 of everything after it, so
a damaged array region or sidecar is rejected on load.

The start memory image is sparse: the numbers of the pages holding a
nonzero word, ascending, and those pages' words, one row each.  Every
other page starts zero.  A stored row is never all zero, so one machine
state has exactly one encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ReproError, open_input
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel
from repro.hw.stats import (KIND_OFFSETS, PAIR_OFFSETS, SCALAR_FIELDS,
                             Counters, FaultKind, Reason)

FORMAT_VERSION = 3
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
# order is part of the format (append-only).  ``Reason.index`` is the
# same number.
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
#: scalars the codec leaves out.  Only configurations trace compilation
#: rejects (SMP, a victim cache or L2, external policies) and
#: ``map_superpage`` move them; :func:`~repro.trace.record.record_run`
#: refuses a window in which one moved rather than drop it silently.
UNENCODED_SCALARS = tuple(name for name in SCALAR_FIELDS
                          if name not in COUNTER_SCALARS)
COUNTER_PAIR_FIELDS = tuple(PAIR_OFFSETS)   # (cache, Reason) -> n
COUNTER_KIND_FIELDS = tuple(KIND_OFFSETS)   # FaultKind -> n
COUNTER_DICT_FIELDS = COUNTER_PAIR_FIELDS + COUNTER_KIND_FIELDS

def encode_tally(rows: dict, cache_tally, fault_tally) -> dict:
    """The six breakdowns of a :class:`Counters`' tallies, cache rows laid
    out by ``rows``, as the image spells them: ``"cache|reason"`` or
    ``"kind"`` by the enums' values, nonzero slots only."""
    image: dict = {name: {} for name in COUNTER_DICT_FIELDS}
    for name, offset in KIND_OFFSETS.items():
        field = image[name]
        for kind in FaultKind:
            n = fault_tally[offset + kind.index]
            if n:
                field[kind.value] = n
    for cache, base in rows.items():
        for name, offset in PAIR_OFFSETS.items():
            field = image[name]
            for reason in REASONS:
                n = cache_tally[base + offset + reason.index]
                if n:
                    field[f"{cache}|{reason.value}"] = n
    return image


def encode_counters(counters: Counters) -> dict:
    """Lossless, JSON-able image of a :class:`Counters` instance."""
    state: dict = {name: getattr(counters, name) for name in COUNTER_SCALARS}
    state.update(encode_tally(counters.rows, counters.cache_tally,
                              counters.fault_tally))
    return state


def decode_counters(state: dict) -> Counters:
    """Rebuild a :class:`Counters` from :func:`encode_counters` output."""
    counters = Counters()
    apply_counters_delta(counters, state)
    return counters


def diff_counters(before: dict, after: dict) -> dict:
    """Sparse delta such that ``before + delta == after`` (all-additive)."""
    counters = decode_counters(after)
    apply_counters_delta(counters, before, -1)
    return {name: value for name, value in encode_counters(counters).items()
            if value}


def apply_counters_delta(counters: Counters, delta: dict,
                         times: int = 1) -> None:
    """Add ``times`` copies of a :func:`diff_counters` delta (or of a full
    encoded state) in place."""
    for name, value in delta.items():
        if name in PAIR_OFFSETS:
            offset = PAIR_OFFSETS[name]
            for key, n in value.items():
                cache, reason = key.split("|", 1)
                counters.cache_tally[counters.row(cache) + offset
                                     + Reason(reason).index] += n * times
        elif name in KIND_OFFSETS:
            offset = KIND_OFFSETS[name]
            for key, n in value.items():
                counters.fault_tally[offset + FaultKind(key).index] += (
                    n * times)
        else:
            setattr(counters, name, getattr(counters, name) + value * times)


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
    start_pages: np.ndarray      # int64 ascending numbers of nonzero pages
    start_rows: np.ndarray       # uint64 their words, one row per page
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
               ("memory_pages", trace.start_pages),
               ("memory_rows", trace.start_rows)]
              + _cache_arrays("dcache", trace.start_dcache)
              + _cache_arrays("icache", trace.start_icache))
    sidecar_bytes = json.dumps(trace.sidecar, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
    payload = b"".join([np.ascontiguousarray(arr).tobytes()
                        for _, arr in arrays] + [sidecar_bytes])
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
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, sort_keys=True,
                           separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        f.write(payload)


_ARRAY_DTYPES = {
    "ops": OP_DTYPE, "values": np.uint64,
    "memory_pages": np.int64, "memory_rows": np.uint64,
    "dcache_tags": np.int64, "dcache_dirty": np.uint8,
    "dcache_data": np.uint64, "dcache_lru": np.int64,
    "icache_tags": np.int64, "icache_dirty": np.uint8,
    "icache_data": np.uint64, "icache_lru": np.int64,
}


def load_trace(path: str) -> Trace:
    """Read an artifact written by :func:`save_trace`.

    A file that is not a trace, one cut short, one whose header is
    garbled or whose array region or sidecar fails the header's sha256,
    one whose start images or op stream do not fit the machine its
    header's config describes, one whose sparse memory image is not its
    one canonical encoding (see the module docstring), one whose ops
    name an opcode, cache page, reason or sidecar entry that replay
    cannot honour, and one whose cost model, clocks or counters images
    are not ones :func:`save_trace` writes raise
    :class:`TraceFormatError`;
    a file that cannot be opened raises :class:`InputFileError`.
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
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        found = header.get("format") if isinstance(header, dict) else None
        raise TraceFormatError(
            f"trace format {found} unsupported "
            f"(this build reads {FORMAT_VERSION})")
    payload = memoryview(blob)[nl + 1:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise TraceFormatError(
            f"{path}: array region and sidecar do not match the header's "
            f"sha256 (the file is damaged or cut short)")
    try:
        return _decode(path, header, blob, nl + 1)
    except (AttributeError, KeyError, IndexError, TypeError,
            ValueError) as exc:
        # The payload is intact, so the header itself was altered.
        raise TraceFormatError(f"{path}: header is malformed ({exc!r})") \
            from None


def _decode(path: str, header: dict, blob: bytes, offset: int) -> Trace:
    arrays = {}
    for spec in header["arrays"]:
        name, shape = spec["name"], tuple(spec["shape"])
        if any(type(n) is not int or n < 0 for n in shape):
            raise TraceFormatError(f"{path}: array {name!r} has shape "
                                   f"{list(shape)}")
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

    config = header["config"]
    _check_image_shapes(path, config, arrays)
    _check_memory_image(path, config, arrays)
    _check_addresses(path, config, arrays)
    _check_op_fields(path, config, arrays["ops"], len(sidecar))
    start, end = header["start"], header["end"]
    # Replay builds its machine from these fields, which the sha256 does
    # not cover: decode them here, so that a doctored one fails to load.
    try:
        CostModel(**header["config"]["cost"])
    except ConfigurationError as exc:
        raise TraceFormatError(f"{path}: config cost: {exc}") from None
    for where, part, names in (("start", start, ("clock", "tick_d",
                                                 "tick_i")),
                               ("end", end, ("clock", "events"))):
        for name in names:
            if type(part[name]) is not int:
                raise TypeError(f"{where} {name} {part[name]!r} is not "
                                f"an integer")
        odd = set(part["counters"]) ^ set(COUNTER_SCALARS
                                          + COUNTER_DICT_FIELDS)
        if odd:
            raise ValueError(f"{where} counters fields {sorted(odd)} are "
                             f"not the counters codec's")
        decode_counters(part["counters"])

    def image(prefix: str, tick: int) -> CacheImage:
        return CacheImage(tags=arrays[f"{prefix}_tags"].copy(),
                          dirty=arrays[f"{prefix}_dirty"].astype(bool),
                          data=arrays[f"{prefix}_data"].copy(),
                          lru=arrays[f"{prefix}_lru"].copy(),
                          tick=tick)

    return Trace(
        meta=header["meta"], config=header["config"],
        ops=arrays["ops"], values=arrays["values"], sidecar=sidecar,
        start_pages=arrays["memory_pages"], start_rows=arrays["memory_rows"],
        start_dcache=image("dcache", start["tick_d"]),
        start_icache=image("icache", start["tick_i"]),
        start_clock=start["clock"], start_counters=start["counters"],
        end_clock=end["clock"], end_counters=end["counters"],
        n_events=end["events"], end_events_sha256=end["events_sha256"],
    )


def _check_image_shapes(path: str, config: dict, arrays: dict) -> None:
    """The start images must fit the machine the header's config builds:
    replay copies each into an array of that machine's shape."""
    pages, page_size = config["phys_pages"], config["page_size"]
    if (type(pages) is not int or type(page_size) is not int
            or pages <= 0 or page_size <= 0):
        raise TraceFormatError(f"{path}: config phys_pages {pages!r} and "
                               f"page_size {page_size!r} must be positive "
                               f"integers")
    numbers = arrays["memory_pages"]
    stored = numbers.shape[0] if numbers.ndim else 0
    expected = {"memory_pages": (stored,),
                "memory_rows": (stored, page_size // WORD_SIZE)}
    for prefix in ("dcache", "icache"):
        try:
            geo = CacheGeometry(**config[prefix])
        except ConfigurationError as exc:
            raise TraceFormatError(f"{path}: config {prefix}: {exc}") \
                from None
        lines = (geo.associativity, geo.num_sets)
        for name in ("tags", "dirty", "lru"):
            expected[f"{prefix}_{name}"] = lines
        expected[f"{prefix}_data"] = lines + (geo.words_per_line,)
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise TraceFormatError(
                f"{path}: the {name} image has shape "
                f"{list(arrays[name].shape)}, but the header's config "
                f"needs {list(shape)}")


def _check_memory_image(path: str, config: dict, arrays: dict) -> None:
    """The sparse start image must be the one encoding of a memory the
    header's config builds: page numbers strictly ascending inside it,
    and no stored row all zero (a zero page is one the image leaves
    out)."""
    pages = config["phys_pages"]
    numbers, rows = arrays["memory_pages"], arrays["memory_rows"]
    if (np.diff(numbers) <= 0).any():
        raise TraceFormatError(
            f"{path}: the memory image's page numbers are not strictly "
            f"increasing")
    if len(numbers) and not 0 <= numbers[0] <= numbers[-1] < pages:
        raise TraceFormatError(
            f"{path}: the memory image names pages {int(numbers[0])}.."
            f"{int(numbers[-1])}, but the header's config has {pages}")
    zero = rows.max(axis=1, initial=0) == 0
    if zero.any():
        raise TraceFormatError(
            f"{path}: the memory image stores page "
            f"{int(numbers[zero.argmax()])} although it is all zero")


#: opcodes whose ``aux`` is a physical run of ``len`` words, and those
#: whose ``aux`` is the base of a physical page (``OP_MEM_WRITE`` names
#: its run in ``va``).
_PHYS_RUN_OPS = (OP_D_READ_RUN, OP_D_WRITE_RUN, OP_I_READ_RUN,
                 OP_I_WRITE_RUN)
_PHYS_PAGE_OPS = (OP_D_READ_PAGE, OP_D_WRITE_PAGE, OP_D_ZERO_PAGE, OP_D_FLUSH,
             OP_D_PURGE, OP_I_READ_PAGE, OP_I_WRITE_PAGE, OP_I_ZERO_PAGE,
             OP_I_FLUSH, OP_I_PURGE)


def _check_addresses(path: str, config: dict, arrays: dict) -> None:
    """Every physical address the op stream and the cache images name
    must lie inside the memory the header's config builds: the sha256
    covers them, but not the config."""
    size = config["phys_pages"] * config["page_size"]
    ops = arrays["ops"]
    op = ops["op"]
    mem = op == OP_MEM_WRITE
    page = np.isin(op, _PHYS_PAGE_OPS)
    named = mem | page | np.isin(op, _PHYS_RUN_OPS)
    start = np.where(mem, ops["va"], ops["aux"])
    end = start + np.where(page, config["page_size"], ops["len"] * WORD_SIZE)
    outside = named & ((start < 0) | (end > size))
    if outside.any():
        at = int(outside.argmax())
        raise TraceFormatError(
            f"{path}: op {at} names physical bytes {int(start[at]):#x}.."
            f"{int(end[at]):#x}, outside the {size}-byte memory of the "
            f"header's config")
    for prefix in ("dcache", "icache"):
        tags = arrays[f"{prefix}_tags"]
        lines = size // config[prefix]["line_size"]
        # An invalid line's tag is -1.
        if tags.size and not -1 <= tags.min() <= tags.max() < lines:
            raise TraceFormatError(
                f"{path}: the {prefix} image tags lines outside the "
                f"{lines}-line memory of the header's config")


_FLUSH_PURGE_OPS = {"dcache": (OP_D_FLUSH, OP_D_PURGE),
                    "icache": (OP_I_FLUSH, OP_I_PURGE)}


def _check_op_fields(path: str, config: dict, ops: np.ndarray,
                     sidecar_len: int) -> None:
    """Every op field replay indexes with must name something that
    exists: the opcode one of the alphabet's, a flush or purge's cache
    page (``va``) one of its cache's and its reason (``asid``) one of
    :data:`REASONS`, and a SYNC's ``aux`` -1 or a sidecar entry, a BUS's
    a sidecar entry.  Replay would otherwise index past a table, or
    wrap a negative index round to its last entry and run on silently.
    """
    op, va, asid, aux = ops["op"], ops["va"], ops["asid"], ops["aux"]

    def refuse(bad: np.ndarray, field: np.ndarray, what: str) -> None:
        if bad.any():
            at = int(bad.argmax())
            raise TraceFormatError(
                f"{path}: op {at} (opcode {int(op[at])}) names "
                f"{what} {int(field[at])}")

    unknown = (op < OP_SYNC) | (op > OP_I_INVAL)
    if unknown.any():
        at = int(unknown.argmax())
        raise TraceFormatError(f"{path}: op {at} has opcode {int(op[at])}, "
                               f"outside {OP_SYNC}..{OP_I_INVAL}")
    for prefix, codes in _FLUSH_PURGE_OPS.items():
        pages = CacheGeometry(**config[prefix]).num_cache_pages
        mine = np.isin(op, codes)
        refuse(mine & ((va < 0) | (va >= pages)), va,
               f"{prefix} cache page (of 0..{pages - 1})")
        refuse(mine & ((asid < 0) | (asid >= len(REASONS))), asid,
               f"reason index (of 0..{len(REASONS) - 1})")
    refuse(((op == OP_SYNC) & ((aux < -1) | (aux >= sidecar_len)))
           | ((op == OP_BUS) & ((aux < 0) | (aux >= sidecar_len))), aux,
           f"sidecar entry (of {sidecar_len})")
