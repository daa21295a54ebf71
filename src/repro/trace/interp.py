"""The trace interpreter: threaded-code replay of a compiled op-stream.

Replay rebuilds only the hardware below the kernel — physical memory, the
two caches, the clock and counters — restores the captured start images,
and executes the op-stream.  There is no TLB, page table, oracle,
injector or monitor at replay time: everything those contributed to the
clock and counters during recording is already in the stream as SYNC
deltas, and everything they contributed to memory is there as explicit
ops.  That asymmetry is the speedup.

The op-stream is first *compiled* into a threaded program — a flat list
of instruction tuples with every operand pre-resolved (set index and
physical line tag computed, value-stream slices taken, SYNC counter
deltas summed, flush and purge tallies resolved to their slots).  Hot
single-line runs and page operations become specialized instructions;
everything else becomes a direct call into the very same
:class:`~repro.hw.cache.Cache` methods the live machine uses.  The page
instructions call the same page kernels as those methods
(:func:`~repro.hw.cache.flush_lines`, ``purge_lines``, ``fill_lines``,
``store_lines``) and keep only the accounting, so their equivalence is
inherited too; only the single-line instructions are written out here,
in scalar form.  Every op executes in stream order, exactly once.

Multi-line runs stay calls: in the paper's traces every one is a whole
page, which ``Cache.read_run``/``write_run`` already handle with the
same fill kernel.  A run of no words is a call too: it changes nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.hw.cache import (_INVALID, Cache, fill_lines, flush_lines,
                            purge_lines, store_lines)
from repro.hw.params import WORD_SIZE, CacheGeometry, CostModel
from repro.hw.physmem import PhysicalMemory
from repro.hw.stats import PAIR_OFFSETS, Clock, Counters
from repro.obs.events import EventBus
from repro.trace.format import (
    OP_BUS, OP_D_INVAL,
    OP_D_READ_PAGE, OP_D_READ_RUN, OP_D_WRITE_RUN, OP_I_INVAL,
    OP_I_READ_PAGE, OP_I_READ_RUN, OP_I_WRITE_RUN, OP_MEM_WRITE, OP_SYNC,
    REASONS, Trace, TraceFormatError, apply_counters_delta, diff_counters,
    encode_counters,
)

#: opcode -> (cache index, is_write) for the word-run ops.
_RUN_OPS = {OP_D_READ_RUN: (0, False), OP_D_WRITE_RUN: (0, True),
            OP_I_READ_RUN: (1, False), OP_I_WRITE_RUN: (1, True)}

# Threaded-program instruction codes (first element of each tuple).
# SYNC instructions appear only on the events path, and carry only the
# clock: every instruction executes exactly once and nothing reads the
# counters between instructions, so all SYNC counter deltas (and, without
# a bus, their clock deltas too) are summed at compile time and applied
# after execution.
_SYNC_CLOCK = 0     # (op, clock_delta)
_D_READ1 = 1        # (op, set, tag, n_words)
_D_WRITE1 = 2       # (op, set, tag, n_words, first_word, values_view)
_I_READ1 = 3        # (op, set, tag, n_words)
_CALL = 4           # (op, callable, args_tuple)
_FLUSH = 5          # (op, pack, want, count_slot)
_PURGE = 6          # (op, pack, want, count_slot, const_cycles)
_RPAGE = 7          # (op, pack, want)
_WPAGE = 8          # (op, pack, want, values_page_view)
#: a flush or purge tally's cycles slot, from its count slot
_CYCLES = PAIR_OFFSETS["flush_cycles"] - PAIR_OFFSETS["page_flushes"]


@dataclass
class ReplayResult:
    """Outcome of a replay, including the equivalence verdict."""

    equivalent: bool
    mismatches: list
    clock: int
    counters: Counters
    counters_state: dict
    n_ops: int
    n_events: int = 0
    events_sha256: str | None = None
    events_jsonl: str | None = field(default=None, repr=False)
    memory: PhysicalMemory | None = field(default=None, repr=False)
    dcache: Cache | None = field(default=None, repr=False)
    icache: Cache | None = field(default=None, repr=False)


def _compile(rows, values, sidecar, dcache, icache, memory, counters,
             bus):
    """Lower the op-stream into a threaded program for this machine.

    Every instruction operand is resolved against the live replay state
    (array views, bound methods, interned enum keys), so execution is a
    tight dispatch loop with no per-op parsing.  Returns ``(program,
    words_consumed, sync_clock, sync_aux)``: the clock deltas of the SYNC
    ops left out of the program and each SYNC counters delta's
    occurrences, by sidecar index.
    """
    geos = (dcache.geo, icache.geo)
    # The specialized instructions assume direct-mapped write-back
    # semantics.
    fast = tuple(g.associativity == 1 and not g.write_through for g in geos)
    line_size = tuple(g.line_size for g in geos)
    num_sets = tuple(g.num_sets for g in geos)
    num_cache_pages = tuple(g.num_cache_pages for g in geos)
    page_size = tuple(g.page_size for g in geos)
    phys_idx = tuple(g.physically_indexed for g in geos)
    caches = (dcache, icache)
    zeros = tuple(np.zeros(g.words_per_page, dtype=np.uint64) for g in geos)
    read1_code = (_D_READ1, _I_READ1)
    lpp = tuple(g.lines_per_page for g in geos)
    # Per-cache-page view pack for the specialized page-granularity
    # instructions, built once per cache page: the page kernels' way-0
    # views of the page's set slice and the memory-line view, lines per
    # page, and the all-hit page access cost.  Slicing the views per
    # instruction would cost three numpy calls each time it runs.
    cost = dcache.cost
    packs = tuple(
        [(c._tags[0, s], c._dirty[0, s], c._data[0, s], c._mem_lines, n,
          g.words_per_page * cost.cache_hit)
         for s in (slice(cp * n, (cp + 1) * n)
                   for cp in range(g.num_cache_pages))]
        for c, g, n in zip(caches, geos, lpp))

    prog: list = []
    vpos = 0
    # Events need the clock exact at every publish, so the events path
    # keeps the SYNC clock deltas as in-stream instructions; otherwise
    # they are summed here too.
    defer = bus is None
    sync_aux: dict = {}
    sync_clock = 0
    # Each cache's page-tag memo, read here first: most page ops name a
    # frame an earlier op already did.
    page_tags = tuple(c._page_tags_cache for c in caches)

    for op, asid, va, ln, aux in rows:
        if op == OP_SYNC:
            if aux >= 0:
                sync_aux[aux] = sync_aux.get(aux, 0) + 1
            if defer:
                sync_clock += va
            else:
                prog.append((_SYNC_CLOCK, va))
            continue
        info = _RUN_OPS.get(op)
        if info is not None:
            cache_idx, is_write = info
            if is_write:
                vals = values[vpos:vpos + ln]
                vpos += ln
            if fast[cache_idx] and ln > 0:
                ls = line_size[cache_idx]
                tag0 = aux // ls
                if (aux + (ln - 1) * WORD_SIZE) // ls == tag0:  # one line
                    addr = aux if phys_idx[cache_idx] else va
                    s0 = (addr // ls) % num_sets[cache_idx]
                    if not is_write:
                        prog.append((read1_code[cache_idx], s0, tag0, ln))
                        continue
                    if cache_idx == 0:
                        prog.append((_D_WRITE1, s0, tag0, ln,
                                     (aux % ls) // WORD_SIZE, vals))
                        continue
            if is_write:
                prog.append((_CALL, caches[cache_idx].write_run,
                             (va, aux, vals)))
            else:
                prog.append((_CALL, caches[cache_idx].read_run,
                             (va, aux, ln)))
            continue
        if op == OP_MEM_WRITE:
            vals = values[vpos:vpos + ln]
            vpos += ln
            prog.append((_CALL, memory.write_words, (va, vals)))
        elif op == OP_BUS:
            if bus is not None:
                entry = sidecar[aux]
                prog.append((_CALL, partial(bus.publish, entry["k"],
                                            **entry["d"]), ()))
        elif op <= OP_D_INVAL:
            cache_idx = 0
        elif op <= OP_I_INVAL:
            cache_idx = 1
        else:
            raise TraceFormatError(f"unknown opcode {op}")
        if op == OP_MEM_WRITE or op == OP_BUS:
            continue
        cache = caches[cache_idx]
        base = op - (OP_D_READ_PAGE if cache_idx == 0 else OP_I_READ_PAGE)
        if base == 5:                                   # *_INVAL
            prog.append((_CALL, cache.invalidate_all, ()))
            continue
        if not fast[cache_idx]:
            # Associative / write-through caches take the generic methods.
            if base == 0:
                prog.append((_CALL, cache.read_page, (va, aux)))
            elif base == 1:
                vals = values[vpos:vpos + ln]
                vpos += ln
                prog.append((_CALL, cache.write_page, (va, aux, vals)))
            elif base == 2:
                prog.append((_CALL, cache.write_page,
                             (va, aux, zeros[cache_idx])))
            elif base == 3:
                prog.append((_CALL, cache.flush_page_frame,
                             (va, aux, REASONS[asid])))
            else:
                prog.append((_CALL, cache.purge_page_frame,
                             (va, aux, REASONS[asid])))
            continue
        want = page_tags[cache_idx].get(aux)
        if want is None:
            want = cache._page_tags(aux)
        if base >= 3:                                   # flush / purge
            pack = packs[cache_idx][va]
            if bus is not None:
                # The events path must publish with exact per-op fields;
                # keep it on the cache methods.
                method = (cache.flush_page_frame if base == 3
                          else cache.purge_page_frame)
                prog.append((_CALL, method, (va, aux, REASONS[asid])))
            elif base == 3:
                prog.append((_FLUSH, pack, want, counters.row(cache.name)
                             + PAIR_OFFSETS["page_flushes"] + asid))
            else:
                const = (cache.cost.icache_purge_page
                         if cache.is_icache else -1)
                prog.append((_PURGE, pack, want, counters.row(cache.name)
                             + PAIR_OFFSETS["page_purges"] + asid, const))
            continue
        addr = aux if phys_idx[cache_idx] else va
        pack = packs[cache_idx][(addr // page_size[cache_idx])
                                % num_cache_pages[cache_idx]]
        if base == 0:                                   # *_READ_PAGE
            prog.append((_RPAGE, pack, want))
        elif base == 1:                                 # *_WRITE_PAGE
            vals = values[vpos:vpos + ln]
            vpos += ln
            prog.append((_WPAGE, pack, want,
                         vals.reshape(lpp[cache_idx], -1)))
        else:                                           # *_ZERO_PAGE
            prog.append((_WPAGE, pack, want,
                         zeros[cache_idx].reshape(lpp[cache_idx], -1)))
    return prog, vpos, sync_clock, sync_aux


def _execute(prog, ctx) -> None:
    """Run a threaded program against the replay machine.

    The single-line handlers reproduce, in scalar form, exactly what
    the equivalent :class:`Cache` word loop does to the tags/dirty/data/
    LRU arrays, the counters and the clock.  The page handlers run the
    cache's page kernels on the packed views and charge what the
    :class:`Cache` method would from the counts they return.

    The hot counters (hits, misses, write-backs, deferred clock cycles,
    the LRU ticks) accumulate in locals and are flushed to the live
    objects at the points where other code can observe them — before
    every ``_CALL`` (cache methods advance the clock and the
    LRU tick themselves, and on the events path a publish stamps the
    clock) and once at the end.  Counter updates are pure additions, so
    the deferral commutes with everything in between.
    """
    (ck, co, mem, (dcache, icache),
     td, dyd, datd, lrud, wpl_d,
     ti, dyi, dati, lrui, wpl_i) = ctx
    cost = dcache.cost
    cost_hit = cost.cache_hit
    cost_fill = cost.line_fill
    cost_wb = cost.write_back
    fl_hit = cost.flush_line_hit
    fl_miss = cost.flush_line_miss
    pl_hit = cost.purge_line_hit
    pl_miss = cost.purge_line_miss
    tally = co.cache_tally
    cyc = r_hit = r_miss = w_hit = w_miss = wbk = 0
    tick_d = dcache._tick
    tick_i = icache._tick
    for item in prog:
        code = item[0]
        if code == _D_READ1:
            _, s, tag, n = item
            old = td.item(s)
            if old == tag:
                r_hit += n
                cyc += n * cost_hit
            else:
                cyc += (n - 1) * cost_hit + cost_fill
                if old != _INVALID and dyd.item(s):
                    mem[old * wpl_d:old * wpl_d + wpl_d] = datd[s]
                    wbk += 1
                    cyc += cost_wb
                datd[s] = mem[tag * wpl_d:tag * wpl_d + wpl_d]
                td[s] = tag
                dyd[s] = False
                r_miss += 1
                r_hit += n - 1
            tick_d += n
            lrud[s] = tick_d
        elif code == _D_WRITE1:
            _, s, tag, n, fw, vals = item
            old = td.item(s)
            if old == tag:
                w_hit += n
                cyc += n * cost_hit
            else:
                cyc += (n - 1) * cost_hit + cost_fill
                if old != _INVALID and dyd.item(s):
                    mem[old * wpl_d:old * wpl_d + wpl_d] = datd[s]
                    wbk += 1
                    cyc += cost_wb
                datd[s] = mem[tag * wpl_d:tag * wpl_d + wpl_d]
                td[s] = tag
                w_miss += 1
                w_hit += n - 1
            datd[s, fw:fw + n] = vals
            dyd[s] = True
            tick_d += n
            lrud[s] = tick_d
        elif code == _SYNC_CLOCK:
            cyc += item[1]
        elif code == _CALL:
            ck.cycles += cyc
            cyc = 0
            dcache._tick = tick_d
            icache._tick = tick_i
            item[1](*item[2])
            tick_d = dcache._tick
            tick_i = icache._tick
        elif code == _I_READ1:
            _, s, tag, n = item
            old = ti.item(s)
            if old == tag:
                r_hit += n
                cyc += n * cost_hit
            else:
                cyc += (n - 1) * cost_hit + cost_fill
                if old != _INVALID and dyi.item(s):
                    mem[old * wpl_i:old * wpl_i + wpl_i] = dati[s]
                    wbk += 1
                    cyc += cost_wb
                dati[s] = mem[tag * wpl_i:tag * wpl_i + wpl_i]
                ti[s] = tag
                dyi[s] = False
                r_miss += 1
                r_hit += n - 1
            tick_i += n
            lrui[s] = tick_i
        elif code == _FLUSH:
            _, pack, want, slot = item
            t, dy, dat, mem_lines, lpp, _page_hit = pack
            hits, nd = flush_lines(t, dy, dat, mem_lines, want)
            wbk += nd
            cycles = hits * fl_hit + (lpp - hits) * fl_miss + nd * cost_wb
            cyc += cycles
            tally[slot] += 1
            tally[slot + _CYCLES] += cycles
        elif code == _PURGE:
            _, pack, want, slot, const_cycles = item
            t, dy, _dat, _mem_lines, lpp, _page_hit = pack
            hits = purge_lines(t, dy, want)
            if const_cycles >= 0:
                cycles = const_cycles
            else:
                cycles = hits * pl_hit + (lpp - hits) * pl_miss
            cyc += cycles
            tally[slot] += 1
            tally[slot + _CYCLES] += cycles
        elif code == _RPAGE:
            _, pack, want = item
            t, dy, dat, mem_lines, lpp, page_hit = pack
            n_miss, nv = fill_lines(t, dy, dat, mem_lines, want)
            r_hit += lpp - n_miss
            r_miss += n_miss
            wbk += nv
            cyc += ((lpp - n_miss) * (page_hit // lpp) + n_miss * cost_fill
                    + nv * cost_wb)
        elif code == _WPAGE:
            _, pack, want, vals2d = item
            t, dy, dat, mem_lines, lpp, page_hit = pack
            nv = store_lines(t, dy, dat, mem_lines, want, vals2d)
            wbk += nv
            cyc += page_hit + nv * cost_wb
        else:  # pragma: no cover - compile emits only the codes above
            raise TraceFormatError(f"unknown instruction code {code}")
    ck.cycles += cyc
    co.read_hits += r_hit
    co.read_misses += r_miss
    co.write_hits += w_hit
    co.write_misses += w_miss
    co.write_backs += wbk
    dcache._tick = tick_d
    icache._tick = tick_i


def _run(rows, values, sidecar, dcache: Cache, icache: Cache,
         memory: PhysicalMemory, bus) -> int:
    """Compile and execute op-stream ``rows`` on caches sharing one
    clock, counters and ``memory``; return the value words consumed."""
    clock, counters = dcache.clock, dcache.counters
    prog, vpos, sync_clock, sync_aux = _compile(
        rows, values, sidecar, dcache, icache, memory, counters, bus)
    ctx = (clock, counters, memory._words, (dcache, icache),
           dcache._tags[0], dcache._dirty[0], dcache._data[0],
           dcache._lru[0], dcache.geo.words_per_line,
           icache._tags[0], icache._dirty[0], icache._data[0],
           icache._lru[0], icache.geo.words_per_line)
    _execute(prog, ctx)
    clock.cycles += sync_clock
    for aux, times in sync_aux.items():
        apply_counters_delta(counters, sidecar[aux], times)
    return vpos


def _restore_memory(memory: PhysicalMemory, pages: np.ndarray,
                    rows: np.ndarray) -> None:
    """Copy a trace's nonzero start pages into a fresh (all-zero) memory.

    The trace carries only the pages that held a nonzero word at capture,
    so a page no op touches is never written (nor, on the host, ever
    mapped), and no scan runs here.
    """
    words = memory._words.reshape(memory.num_pages, memory.words_per_page)
    words[pages] = rows


def _restore_image(cache: Cache, image) -> None:
    cache._tags[:] = image.tags
    cache._dirty[:] = image.dirty
    cache._data[:] = image.data
    cache._lru[:] = image.lru
    cache._tick = image.tick


def replay_trace(trace: Trace) -> ReplayResult:
    """Re-execute a compiled trace and verify the equivalence contract.

    The result's ``equivalent`` flag is True iff the replayed clock,
    the full-fidelity counters state and (when the trace recorded
    events) the event JSONL hash are bit-identical to what the recorder
    captured.
    """
    config = trace.config
    geo_d = CacheGeometry(**config["dcache"])
    geo_i = CacheGeometry(**config["icache"])
    cost = CostModel(**config["cost"])
    clock = Clock()
    clock.cycles = trace.start_clock
    counters = Counters()
    apply_counters_delta(counters, trace.start_counters)
    memory = PhysicalMemory(config["phys_pages"], config["page_size"])
    _restore_memory(memory, trace.start_pages, trace.start_rows)
    dcache = Cache(geo_d, memory, cost, clock, counters, name="dcache")
    icache = Cache(geo_i, memory, cost, clock, counters, name="icache",
                   is_icache=True)
    _restore_image(dcache, trace.start_dcache)
    _restore_image(icache, trace.start_icache)

    events: list = []
    bus = None
    if trace.n_events:
        # The recording started with a fresh bus, so a fresh bus replays
        # to identical sequence numbers (and SYNC keeps the clock stamps
        # aligned).  Flush/purge events are republished by the cache code
        # itself; everything else replays as explicit BUS ops.
        bus = EventBus(clock)
        bus.enable()
        bus.subscribe(events.append)
        dcache.bus = bus
        icache.bus = bus

    # Column-wise conversion then zip: materially cheaper than a 2-D
    # tolist (which allocates one list per row before the compile loop
    # immediately unpacks and discards it).
    n_ops = len(trace.ops)
    cols = [trace.ops[name].tolist()
            for name in ("op", "asid", "va", "len", "aux")]
    vpos = _run(zip(*cols), trace.values, trace.sidecar, dcache, icache,
                memory, bus)

    mismatches: list[str] = []
    if vpos != len(trace.values):
        mismatches.append(f"value stream: consumed {vpos} of "
                          f"{len(trace.values)} words")
    if clock.cycles != trace.end_clock:
        mismatches.append(f"clock: replayed {clock.cycles}, "
                          f"recorded {trace.end_clock}")
    counters_state = encode_counters(counters)
    if counters_state != trace.end_counters:
        mismatches.append("counters: replay differs by "
                          f"{diff_counters(trace.end_counters, counters_state)}")
    jsonl = sha = None
    if trace.n_events:
        jsonl = "".join(e.to_json() + "\n" for e in events)
        sha = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()
        if sha != trace.end_events_sha256:
            mismatches.append(
                f"events: replayed {len(events)} events hash to {sha}, "
                f"recorded sha {trace.end_events_sha256}")
    return ReplayResult(
        equivalent=not mismatches, mismatches=mismatches,
        clock=clock.cycles, counters=counters,
        counters_state=counters_state, n_ops=n_ops,
        n_events=len(events), events_sha256=sha, events_jsonl=jsonl,
        memory=memory, dcache=dcache, icache=icache,
    )
