"""Outside-in host-time attribution across the simulator's layers.

:class:`LayerTimer` splits a run's host time (``perf_counter_ns``) and
its simulated time (the machine clock) across the layers of the stack,
without touching ``src/``: it replaces the public entry points of each
layer with timing wrappers, as instance attributes on one booted kernel
(or, for trace replay, as class attributes of :class:`Cache`, because
``replay_trace`` builds its caches internally), and restores every one
of them on :meth:`LayerTimer.detach`.

A stack of frames charges each interval to the innermost open call, so
a layer's *self* time excludes the layers it called.  The frames nest
under one root frame opened by :meth:`LayerTimer.start`, so the self
times of all layers sum to the root window by construction.  A missed
entry point therefore loses no time: its time goes to the calling
layer.  It shows instead as a layer without calls, which the harness
checks against the layers each workload must run.

Full spans (layer, start, end, parent, request id) are kept only for
every :data:`SPAN_EVERY`-th request, in memory, and written as JSONL at
the end (:meth:`LayerTimer.write_spans`).
"""

from __future__ import annotations

import json
import time

#: the layers, in stack order; indices into the per-layer tallies.
LAYERS = (
    "workload",            # the benchmark's own code: its self time
    "kernel.unix_server",  # UnixServer.sys_* and process attach/detach
    "kernel.ipc",          # transfer_page
    "kernel.buffer_cache",
    "kernel.disk",
    "kernel.fault",        # the fault dispatcher (Kernel.handle_fault)
    "kernel.pageout",
    "vm.pmap",             # mapping, consistency, preparation, DMA prep
    "hw.machine",          # CPU access paths: translate plus dispatch
    "hw.tlb",
    "hw.cache",
    "hw.dma",
    "core.oracle",         # the staleness oracle's checks and notes
    "trace.compile",       # compile_workload, as one opaque call
    "trace.replay",        # replay_trace's interpreter, minus the caches
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
#: full spans are kept for every this-many-th request.
SPAN_EVERY = 64

#: (layer, kernel attribute path, entry points wrapped on that object).
_KERNEL_ENTRY_POINTS = (
    ("kernel.unix_server", "unix_server",
     ("attach", "detach", "sys_create", "sys_open", "sys_close",
      "sys_stat", "sys_read_page", "sys_write_page", "sys_remove")),
    ("kernel.buffer_cache", "buffer_cache",
     ("read_block", "write_block_from_frame", "dirty_block", "tick",
      "sync", "invalidate_file")),
    ("kernel.disk", "disk",
     ("preload", "read_block", "write_block", "discard")),
    ("kernel.pageout", "pageout", ("maybe_reclaim", "reclaim", "swap_in")),
    ("vm.pmap", "pmap",
     ("enter", "remove", "protect", "consistency_fault", "copy_page",
      "zero_fill_page", "read_frame", "prepare_dma_read",
      "prepare_dma_write", "install_text_page", "enter_superpage",
      "translate", "note_modified", "frame_freed", "destroy_page_table")),
    ("hw.machine", "machine",
     ("read", "write", "read_block", "write_block", "read_page",
      "write_page", "ifetch")),
    ("hw.tlb", "machine.tlb",
     ("lookup", "insert", "invalidate", "invalidate_asid", "invalidate_all",
      "note_repeat_hits")),
    ("hw.dma", "machine.dma", ("dma_read", "dma_write")),
    ("core.oracle", "machine.oracle",
     ("note_cpu_write", "note_page_write", "note_dma_write",
      "note_run_write", "check_cpu_read", "check_page_read",
      "check_run_read", "check_dma_read")),
)
#: the cache entry points, wrapped on both L1s (or on the class).
_CACHE_ENTRY_POINTS = ("read", "write", "read_run", "write_run", "read_page",
                       "write_page", "zero_page", "flush_page_frame",
                       "purge_page_frame", "invalidate_all")

_MISSING = object()


def _resolve(obj, path: str):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class LayerTimer:
    """Per-layer host-ns and simulated-cycle self time, outside-in.

    Usage::

        timer = LayerTimer()
        timer.start()
        kernel = Kernel(...)
        timer.attach_kernel(kernel)
        with timer.span("workload", kernel.machine.clock, request=rid): ...
        timer.detach()
        timer.stop()
        timer.report()
    """

    def __init__(self):
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.self_cycles = [0] * n
        self.calls = [0] * n
        self.spans: list[dict] = []
        # Frames are [child_ns, child_cycles, span_id or None].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._ipc_wrapped = False
        self._keep_spans = False
        self._request_id = None
        self._span_ids = 0
        self._root_t0 = 0
        self.wall_ns = 0

    # ---- the frame stack ----------------------------------------------------

    def _open(self) -> list:
        """Push a frame; a kept request also gets a span id."""
        sid = None
        if self._keep_spans:
            self._span_ids += 1
            sid = self._span_ids
        frame = [0, 0, sid]
        self._stack.append(frame)
        return frame

    def _close(self, layer: int, frame: list, t0: int, t1: int,
               cycles: int) -> None:
        self._stack.pop()
        dt = t1 - t0
        self.self_ns[layer] += dt - frame[0]
        self.self_cycles[layer] += cycles - frame[1]
        self.calls[layer] += 1
        parent = self._stack[-1]
        parent[0] += dt
        parent[1] += cycles
        if frame[2] is not None:
            self.spans.append({"name": LAYERS[layer], "id": frame[2],
                               "parent": parent[2],
                               "start": t0 - self._root_t0,
                               "end": t1 - self._root_t0,
                               "request": self._request_id})

    def start(self) -> "LayerTimer":
        """Open the root frame (the ``workload`` layer: the benchmark's
        own code)."""
        if self._stack:
            raise RuntimeError("layer timer already started")
        self._root_t0 = time.perf_counter_ns()
        self._stack.append([0, 0, None])
        return self

    def stop(self) -> None:
        """Close the root frame; every wrapper must be detached first."""
        if self._restore:
            raise RuntimeError("detach the layer timer before stopping it")
        t1 = time.perf_counter_ns()
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("layer timer stopped with open frames")
        self.wall_ns = t1 - self._root_t0
        self.self_ns[0] += self.wall_ns - frame[0]
        self.calls[0] += 1

    # ---- explicit spans from the benchmark's own code -----------------------

    def span(self, layer: str, clock=None, request: int | None = None):
        """A span charged to ``layer`` (a context manager).  Its cycles
        come from ``clock``; without one, set ``.cycles`` before it
        closes.  A ``request`` id marks one client request: its spans and
        its callees' are kept when ``request % SPAN_EVERY == 0``."""
        return _Span(self, _INDEX[layer], clock, request)

    # ---- wrapping -----------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        """Replace an attribute, remembering exactly how to restore it."""
        own = vars(owner).get(name, _MISSING)
        self._restore.append((owner, name, own))
        setattr(owner, name, value)

    def _wrapper(self, original, layer: int, clock=None, clock_of=None):
        """Time ``original`` as ``layer``; cycles come from ``clock`` or,
        when the clock is only known per call, from ``clock_of(args)``."""
        now = time.perf_counter_ns
        open_, close = self._open, self._close

        if clock is not None:
            def timed(*args, **kwargs):
                c0 = clock.cycles
                t0 = now()
                frame = open_()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(layer, frame, t0, now(), clock.cycles - c0)
        else:
            def timed(*args, **kwargs):
                clk = clock_of(args)
                c0 = clk.cycles
                t0 = now()
                frame = open_()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(layer, frame, t0, now(), clk.cycles - c0)
        return timed

    def wrap(self, owner, name: str, layer: str, clock=None,
             clock_of=None) -> None:
        """Time ``owner.name`` as ``layer`` until :meth:`detach`."""
        original = getattr(owner, name)
        self._set(owner, name, self._wrapper(original, _INDEX[layer],
                                             clock, clock_of))

    def attach_kernel(self, kernel) -> None:
        """Wrap every layer entry point of one booted kernel.

        Attribute wrapping alone misses the bound references taken at
        boot, so those are re-pointed too: the machine's fault handler,
        translation source and write notifier, and the Unix server's
        module-global ``transfer_page``.
        """
        machine = kernel.machine
        clock = machine.clock
        for layer, path, names in _KERNEL_ENTRY_POINTS:
            owner = _resolve(kernel, path)
            if owner is None:
                continue          # no oracle / no Unix server
            for name in names:
                self.wrap(owner, name, layer, clock)
        for cache in (machine.dcache, machine.icache):
            for name in _CACHE_ENTRY_POINTS:
                self.wrap(cache, name, "hw.cache", clock)
        self.wrap(machine, "fault_handler", "kernel.fault", clock)
        self._set(machine, "translation_source", kernel.pmap.translate)
        self._set(machine, "write_notifier", kernel.pmap.note_modified)
        if not self._ipc_wrapped:
            import repro.kernel.unix_server as unix_server
            self.wrap(unix_server, "transfer_page", "kernel.ipc",
                      clock_of=lambda args: args[0].machine.clock)
            self._ipc_wrapped = True

    def attach_replay(self) -> None:
        """Wrap the cache entry points at class level, for replays."""
        from repro.hw.cache import Cache
        for name in _CACHE_ENTRY_POINTS:
            self.wrap(Cache, name, "hw.cache",
                      clock_of=lambda args: args[0].clock)

    def detach(self) -> None:
        """Restore every wrapped or re-pointed attribute, newest first."""
        for owner, name, own in reversed(self._restore):
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._restore.clear()
        self._ipc_wrapped = False

    # ---- results ------------------------------------------------------------

    def report(self) -> dict:
        """layer -> {self_ns, calls, sim_cycles}."""
        return {name: {"self_ns": self.self_ns[i], "calls": self.calls[i],
                       "sim_cycles": self.self_cycles[i]}
                for i, name in enumerate(LAYERS)}

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


class _Span:
    """Context manager behind :meth:`LayerTimer.span`."""

    __slots__ = ("timer", "layer", "clock", "request_id", "cycles",
                 "_c0", "_t0", "_frame", "_outer")

    def __init__(self, timer: LayerTimer, layer: int, clock, request_id):
        self.timer = timer
        self.layer = layer
        self.clock = clock
        self.request_id = request_id
        self.cycles = 0

    def __enter__(self) -> "_Span":
        timer = self.timer
        self._outer = (timer._keep_spans, timer._request_id)
        if self.request_id is not None:
            timer._request_id = self.request_id
            timer._keep_spans = self.request_id % SPAN_EVERY == 0
        self._c0 = self.clock.cycles if self.clock is not None else 0
        self._t0 = time.perf_counter_ns()
        self._frame = timer._open()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        if self.clock is not None:
            self.cycles = self.clock.cycles - self._c0
        timer = self.timer
        timer._close(self.layer, self._frame, self._t0, t1, self.cycles)
        timer._keep_spans, timer._request_id = self._outer
