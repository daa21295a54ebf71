"""Hypothesis stateful testing of the pmap layer.

A rule-based state machine drives the machine-dependent layer directly —
mapping, unmapping, reading and writing through arbitrary aliases,
preparing pages and scheduling DMA — while two invariants are checked
after every step: the staleness oracle stays clean (the machine raises on
any stale transfer) and every physical page's consistency encoding stays
structurally valid (Table 3).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.hw.machine import Machine
from repro.hw.params import small_machine
from repro.prot import AccessKind, Prot
from repro.vm.pmap import Pmap
from repro.vm.policy import CONFIG_F
from tests.hw.cache_helpers import dirty_cache_pages

PAGE = 4096
FRAMES = (3, 4, 5)        # physical pages under test
VPAGES = tuple(range(8, 24))


class PmapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine = Machine(small_machine())
        self.pmap = Pmap(self.machine, CONFIG_F)
        self.machine.fault_handler = self._fault
        self.mapped: dict[int, int] = {}     # vpage -> ppage
        self.next_value = 1

    def _fault(self, info):
        self.pmap.consistency_fault(info.asid, info.vaddr // PAGE,
                                    info.access)

    # ---- rules ------------------------------------------------------------------

    @rule(vpage=st.sampled_from(VPAGES), ppage=st.sampled_from(FRAMES),
          write=st.booleans())
    def map_page(self, vpage, ppage, write):
        if vpage in self.mapped:
            return
        access = AccessKind.WRITE if write else AccessKind.READ
        self.pmap.enter(1, vpage, ppage, Prot.READ_WRITE, access)
        self.mapped[vpage] = ppage

    @rule(vpage=st.sampled_from(VPAGES))
    def unmap_page(self, vpage):
        if vpage not in self.mapped:
            return
        self.pmap.remove(1, vpage)
        del self.mapped[vpage]

    @precondition(lambda self: self.mapped)
    @rule(data=st.data(), word=st.integers(0, 15))
    def write_word(self, data, word):
        vpage = data.draw(st.sampled_from(sorted(self.mapped)))
        self.machine.write(1, vpage * PAGE + word * 4, self.next_value)
        self.next_value += 1

    @precondition(lambda self: self.mapped)
    @rule(data=st.data(), word=st.integers(0, 15))
    def read_word(self, data, word):
        vpage = data.draw(st.sampled_from(sorted(self.mapped)))
        # the machine checks the value against the oracle internally
        self.machine.read(1, vpage * PAGE + word * 4)

    @rule(ppage=st.sampled_from(FRAMES))
    def dma_out(self, ppage):
        self.pmap.prepare_dma_read(ppage)
        self.machine.dma.dma_read(ppage)     # oracle-checked transfer

    @rule(ppage=st.sampled_from(FRAMES), fill=st.integers(0, 2**30))
    def dma_in(self, ppage, fill):
        import numpy as np
        self.pmap.prepare_dma_write(ppage)
        self.machine.dma.dma_write(
            ppage, np.full(1024, fill, dtype=np.uint64))

    @rule(ppage=st.sampled_from(FRAMES), hint=st.sampled_from(VPAGES))
    def recycle_frame(self, ppage, hint):
        # only frames with no live mappings can be re-prepared
        if any(p == ppage for p in self.mapped.values()):
            return
        self.pmap.zero_fill_page(ppage, ultimate_vpage=hint)

    # ---- invariants ------------------------------------------------------------------

    @invariant()
    def oracle_is_clean(self):
        assert self.machine.oracle.clean

    @invariant()
    def page_states_structurally_valid(self):
        for state in self.pmap.page_states.values():
            state.validate()

    @invariant()
    def at_most_one_dirty_cache_page_per_frame(self):
        for ppage in FRAMES:
            pa = ppage * PAGE
            assert len(dirty_cache_pages(self.machine.dcache, pa)) <= 1


PmapMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestPmapStateMachine = PmapMachine.TestCase
