"""Tests for the per-physical-page state encoding (Table 3)."""

import pytest

from repro.core.page_state import PhysPageState
from repro.core.states import LineState
from repro.errors import ReproError


def make_state(ncp=8):
    return PhysPageState(ppage=5, num_cache_pages=ncp)


class TestTable3Decoding:
    """The exact correspondence of Table 3."""

    def test_empty(self):
        state = make_state()
        assert state.decode(0) is LineState.EMPTY

    def test_present(self):
        state = make_state()
        state.mapped[2] = True
        assert state.decode(2) is LineState.PRESENT

    def test_dirty(self):
        state = make_state()
        state.mapped[2] = True
        state.cache_dirty = True
        assert state.decode(2) is LineState.DIRTY

    def test_stale(self):
        state = make_state()
        state.stale[3] = True
        assert state.decode(3) is LineState.STALE

    def test_dirty_applies_only_to_the_mapped_cache_page(self):
        # cache_dirty is a single bit; the dirty cache page is the one
        # whose mapped bit is set.
        state = make_state()
        state.mapped[2] = True
        state.cache_dirty = True
        assert state.decode(2) is LineState.DIRTY
        assert state.decode(1) is LineState.EMPTY

    def test_all_four_states_coexist_across_cache_pages(self):
        state = make_state()
        state.mapped[0] = True          # present... until dirty below
        state.stale[1] = True           # stale
        # cache page 2 empty
        assert state.decode(0) is LineState.PRESENT
        assert state.decode(1) is LineState.STALE
        assert state.decode(2) is LineState.EMPTY


class TestFindMappedCachePage:
    def test_returns_the_single_mapped_page(self):
        state = make_state()
        state.mapped[6] = True
        assert state.find_mapped_cache_page() == 6

    def test_raises_with_no_mapped_page(self):
        with pytest.raises(ReproError):
            make_state().find_mapped_cache_page()


class TestInvariants:
    def test_mapped_and_stale_disjoint(self):
        state = make_state()
        state.mapped[1] = True
        state.stale[1] = True
        with pytest.raises(ReproError):
            state.validate()

    def test_cache_dirty_requires_exactly_one_mapped(self):
        state = make_state()
        state.cache_dirty = True
        with pytest.raises(ReproError):
            state.validate()
        state.mapped[0] = True
        state.validate()  # fine now
        state.mapped[1] = True
        with pytest.raises(ReproError):
            state.validate()

    def test_clean_state_validates(self):
        make_state().validate()


class TestMappings:
    def test_add_and_find(self):
        state = make_state()
        mapping = state.add_mapping(asid=1, vpage=100)
        assert state.find_mapping(1, 100) is mapping
        assert state.find_mapping(1, 101) is None

    def test_add_is_idempotent(self):
        state = make_state()
        first = state.add_mapping(1, 100)
        second = state.add_mapping(1, 100)
        assert first is second
        assert len(state.mappings) == 1

    def test_remove(self):
        state = make_state()
        state.add_mapping(1, 100)
        removed = state.remove_mapping(1, 100)
        assert removed is not None
        assert state.mappings == []

    def test_remove_missing_returns_none(self):
        assert make_state().remove_mapping(1, 100) is None

    def test_cache_page_of_wraps_modulo(self):
        state = make_state(ncp=8)
        assert state.cache_page_of(3) == 3
        assert state.cache_page_of(11) == 3

    def test_icache_page_independent_width(self):
        state = PhysPageState(0, num_cache_pages=8, num_icache_pages=4)
        assert state.icache_page_of(7) == 3
        assert state.cache_page_of(7) == 7
