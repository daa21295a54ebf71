"""Tests for the policy configuration ladder and the Table 5 systems."""

import pytest

from repro.policy import get_policy
from repro.vm.policy import (CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D,
                             CONFIG_E, CONFIG_F, CONFIG_LADDER, NEW_SYSTEM,
                             OLD_SYSTEM, SYSTEM_TUT, TABLE5_SYSTEMS)


class TestLadder:
    def test_six_configurations_in_order(self):
        assert [c.name for c in CONFIG_LADDER] == list("ABCDEF")

    def test_a_is_eager_everything_else_lazy(self):
        assert not CONFIG_A.lazy_unmap
        assert CONFIG_A.eager_purge_stale
        assert CONFIG_A.eager_break_aliases
        for config in CONFIG_LADDER[1:]:
            assert config.lazy_unmap
            assert not config.eager_purge_stale

    def test_optimizations_are_cumulative(self):
        flags = ["align_ipc", "aligned_prepare", "opt_need_data",
                 "opt_will_overwrite"]
        enabled_counts = [sum(getattr(c, f) for f in flags)
                          for c in CONFIG_LADDER[1:]]
        assert enabled_counts == sorted(enabled_counts)

    def test_each_rung_adds_exactly_its_feature(self):
        assert CONFIG_C.align_ipc and not CONFIG_B.align_ipc
        assert CONFIG_D.aligned_prepare and not CONFIG_C.aligned_prepare
        assert CONFIG_E.opt_need_data and not CONFIG_D.opt_need_data
        assert CONFIG_F.opt_will_overwrite and not CONFIG_E.opt_will_overwrite

    def test_old_and_new_aliases(self):
        assert OLD_SYSTEM is CONFIG_A
        assert NEW_SYSTEM is CONFIG_F


class TestTable5Systems:
    def test_five_systems(self):
        assert [s.name for s in TABLE5_SYSTEMS] == [
            "CMU", "Utah", "Tut", "Apollo", "Sun"]

    def test_cmu_has_everything(self):
        cmu = TABLE5_SYSTEMS[0]
        assert cmu.lazy_unmap and cmu.align_ipc and cmu.aligned_prepare
        assert cmu.opt_need_data and cmu.opt_will_overwrite

    def test_tut_keeps_state_per_virtual_address(self):
        assert SYSTEM_TUT.lazy_unmap
        assert SYSTEM_TUT.tut_equal_va_only
        assert SYSTEM_TUT.aligned_prepare
        assert not SYSTEM_TUT.align_ipc

    def test_eager_systems(self):
        for name in ("Utah", "Apollo", "Sun"):
            system = get_policy(name).flags
            assert not system.lazy_unmap


class TestLookup:
    def test_by_name_case_insensitive(self):
        assert get_policy("f").flags is CONFIG_F
        assert get_policy("tut").flags is SYSTEM_TUT

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_policy("nonesuch")

    def test_derive_changes_only_requested_fields(self):
        derived = CONFIG_F.derive("X", "test", opt_need_data=False)
        assert derived.name == "X"
        assert not derived.opt_need_data
        assert derived.opt_will_overwrite  # untouched
