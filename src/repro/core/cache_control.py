"""The CacheControl algorithm of Figure 1.

This is the software implementation of the consistency model: it runs on
every operation that could change the consistency state of cache pages
(CPU accesses caught by virtual-memory protection, and DMA scheduling),
updates the per-physical-page state (:class:`PhysPageState`), performs the
required flush/purge operations through callbacks, and re-derives the
virtual-memory protections of every mapping so that inconsistencies can
never be perceived.

The body mirrors the paper's six stanzas:

1. compute the physical page and target cache page;
2. remove the contents of a dirty cache page when it is not the target
   (flush if its data is needed, else purge — the ``need_data``
   optimization);
3. ensure the target cache page is not stale (purge, unless the caller
   promises to overwrite it entirely — the ``will_overwrite``
   optimization);
4. writes into the memory system force all mapped pages stale and
   unmapped; a CPU-write then marks its target mapped, not-stale, dirty;
5. a CPU-read marks its target cache page mapped;
6. set protections for every mapping to match the new state.

Atomicity: on the paper's uniprocessor the sequence runs with interrupts
disabled; in the simulator each call is naturally atomic.

The ``eager_purge_stale`` flag turns the engine into the "old"-style
eager policy of Section 2.5 for ablation: instead of *marking* unaligned
pages stale it purges them immediately (stale data never lingers), which
is correct but performs cache operations at inconsistency-creation time
rather than at detection time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.page_state import Mapping, PhysPageState
from repro.core.states import Action, MemoryOp
from repro.errors import ReproError
from repro.hw.stats import Reason
from repro.prot import Prot

# Callback signatures.  flush/purge receive (cache_page, ppage, reason);
# set_protection receives (mapping, consistency protection or None to
# leave the current protection in place, as the paper's final stanza does
# for mapped non-stale pages during DMA operations).
FlushFn = Callable[[int, int, Reason], None]
PurgeFn = Callable[[int, int, Reason], None]
ProtectFn = Callable[[Mapping, Optional[Prot]], None]


@dataclass(frozen=True)
class PerformedOp:
    """A flush or purge the algorithm carried out (for tests/metrics)."""

    action: Action
    cache_page: int


class CacheControl:
    """The Figure 1 engine, independent of any particular cache hardware."""

    def __init__(self, flush_cache_page: FlushFn, purge_cache_page: PurgeFn,
                 set_protection: ProtectFn,
                 eager_purge_stale: bool = False):
        self._flush = flush_cache_page
        self._purge = purge_cache_page
        self._protect = set_protection
        self.eager_purge_stale = eager_purge_stale

    def __call__(self, state: PhysPageState, op: MemoryOp,
                 target_vpage: int | None = None, *,
                 will_overwrite: bool = False, need_data: bool = True,
                 reason: Reason = Reason.EXPLICIT,
                 update_protections: bool = True) -> list[PerformedOp]:
        """Run CacheControl for one operation on one physical page.

        Args:
            state: the physical page's consistency bookkeeping.
            op: one of CPU_READ / CPU_WRITE / DMA_READ / DMA_WRITE.
            target_vpage: the virtual page of the access (CPU ops only).
            will_overwrite: the stale target data will be entirely
                overwritten before it is read, so its purge can be skipped.
            need_data: dirty cache data is still useful; if False it can be
                purged instead of flushed (dead data, e.g. a recycled page).
            reason: attribution tag for the metrics.
            update_protections: skip stanza 6 (used for transient kernel
                windows that have no user mappings to re-protect).

        Returns:
            The flush/purge operations performed, in order.
        """
        if op.is_cache_op:
            raise ReproError("CacheControl handles memory operations; call "
                             "flush/purge callbacks directly for cache ops")
        if op.is_cpu and target_vpage is None:
            raise ReproError(f"{op} requires a target virtual page")

        performed: list[PerformedOp] = []
        p = state.ppage

        # Stanza 1: physical page and target cache page.
        c = state.cache_page_of(target_vpage) if op.is_cpu else None

        # Stanza 2: clean the dirty cache page if it is not the target.
        if state.cache_dirty:
            w = state.find_mapped_cache_page()
            if op.is_dma or w != c:
                if need_data:
                    self._flush(w, p, reason)
                    performed.append(PerformedOp(Action.FLUSH, w))
                else:
                    self._purge(w, p, reason)
                    performed.append(PerformedOp(Action.PURGE, w))
                state.cache_dirty = False
                # Note: mapped[w] deliberately stays set, as in Figure 1.
                # After the flush, memory matches the cleaned page, so a
                # Present state for w is sound (pessimism in the safe
                # direction, Section 3.2); a subsequent write will mark it
                # stale through stanza 4.

        # Stanza 3: ensure the target cache page is not stale (CPU only).
        if op.is_cpu and state.stale[c]:
            if not will_overwrite:
                self._purge(c, p, reason)
                performed.append(PerformedOp(Action.PURGE, c))
            state.stale[c] = False

        # Stanza 4: writes force all mapped and stale pages to stale and
        # all mapped pages to unmapped; a CPU-write then reinstates its
        # own target as mapped, not stale, and dirty.
        if op.is_write:
            state.stale.or_with(state.mapped)
            state.mapped.clear_all()
            if op is MemoryOp.CPU_WRITE:
                state.stale[c] = False
                state.cache_dirty = True
                state.mapped[c] = True
            if self.eager_purge_stale:
                for cp in state.stale.indices():
                    self._purge(cp, p, reason)
                    performed.append(PerformedOp(Action.PURGE, cp))
                state.stale.clear_all()

        # Stanza 5: a CPU-read marks the target cache page mapped.
        if op is MemoryOp.CPU_READ:
            state.mapped[c] = True

        if op.is_cpu:
            state.last_cache_page = c

        # Stanza 6: set protections for all virtual addresses mapping to p
        # so inconsistencies cannot be perceived, subsequent accesses are
        # detected, and the current operation can complete.
        if update_protections:
            self.update_protections(state, op)

        return performed

    def update_protections(self, state: PhysPageState, op: MemoryOp) -> None:
        """Stanza 6, callable on its own (e.g. after an unmap)."""
        for mapping in state.mappings:
            cv = state.cache_page_of(mapping.vpage)
            if state.stale[cv]:
                self._protect(mapping, Prot.NONE)
            elif not state.mapped[cv]:
                self._protect(mapping, Prot.NONE)
            elif op is MemoryOp.CPU_WRITE:
                self._protect(mapping, Prot.READ_WRITE)
            elif op is MemoryOp.CPU_READ:
                self._protect(mapping, Prot.READ)
            else:
                self._protect(mapping, None)  # DMA: leave unchanged
