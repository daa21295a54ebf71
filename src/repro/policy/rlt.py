"""Reverse-lookup-table consistency management (Desai & Deshmukh,
arXiv 2108.00444).

The paper's policies are *conservative*: every decided flush/purge walks
all ``lines_per_page`` line slots of the target cache page because the
software cannot know which lines of the frame are actually resident.
The reverse-lookup table (RLT) is a hardware structure mapping physical
page -> the set of its lines resident in the cache, making synonym
invalidation *exact*:

* an operation on a frame with **zero** resident lines is skipped
  entirely (the dominant case under lazy management, where most decided
  operations target long-cold cache pages);
* an operation that does run touches **only the resident lines** — the
  per-line miss-scan term of the cost model disappears (the cache runs
  in ``exact_management`` mode, see :meth:`Cache.flush_page_frame`).

Neither shortcut changes what ends up in the cache or memory: skipping
an operation with no resident lines is a no-op by definition (any line
previously evicted was written back by the write-back cache), and the
exact walk invalidates the same lines the conservative walk would.
Only the *cost* changes — which is the point of the strategy.

The table itself is modeled as perfect (the simulator's ground-truth
``resident_lines`` query *is* the RLT), and every consult is charged
:attr:`CostModel.rlt_lookup` cycles on the simulated clock, so the
strategy pays for its bookkeeping the same way the paper's policies pay
for their conservatism.  Counters: ``rlt_lookups`` (consults) and
``rlt_skipped_ops`` (operations proven unnecessary).

Everything *above* the flush/purge funnel is configuration F — the RLT
changes how decided operations are carried out, not which ones are
decided.
"""

from __future__ import annotations

from repro.policy.base import ConsistencyPolicy
from repro.vm.policy import CONFIG_F


class ReverseLookupPolicy(ConsistencyPolicy):
    """Configuration F with exact, RLT-backed synonym invalidation."""

    def __init__(self):
        super().__init__(
            CONFIG_F.derive(
                "rlt",
                "F + reverse-lookup table: exact synonym invalidation "
                "(arXiv 2108.00444)"),
            origin="external")

    def setup(self, pmap) -> None:
        for cache in pmap.machine.dcaches:
            cache.exact_management = True

    # One consult answers "which lines of this frame sit in this cache
    # page"; with the answer in hand the operation is either skipped
    # (empty) or performed over exactly the resident lines.
    def _consult(self, pmap, cache_page: int, ppage: int) -> int:
        machine = pmap.machine
        machine.clock.advance(machine.config.cost.rlt_lookup)
        machine.counters.rlt_lookups += 1
        return machine.dcache.resident_lines(cache_page,
                                             pmap._pa_base(ppage))

    def do_flush(self, pmap, cache_page: int, ppage: int, reason) -> None:
        if self._consult(pmap, cache_page, ppage) == 0:
            pmap.machine.counters.rlt_skipped_ops += 1
            return
        super().do_flush(pmap, cache_page, ppage, reason)

    def do_purge(self, pmap, cache_page: int, ppage: int, reason) -> None:
        if self._consult(pmap, cache_page, ppage) == 0:
            pmap.machine.counters.rlt_skipped_ops += 1
            return
        super().do_purge(pmap, cache_page, ppage, reason)

    def waives_missed_action(self, kernel, cache, frame: int,
                             action) -> bool:
        """A skipped operation is provably harmless iff no line of the
        frame sits in the demanded cache page.

        Sound at check time, not just at skip time: the monitor checks
        *before* the triggering access executes, and the only way lines
        of ``frame`` enter the cache between the skip and the check is an
        access to ``frame`` — which would itself have been checked first.
        Residency can only have shrunk since the skip (evictions write
        dirty lines back), so zero-at-check implies the miss was exact.
        """
        return cache.resident_lines(action.cache_page,
                                    frame * kernel.machine.page_size) == 0
