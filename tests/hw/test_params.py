"""Tests for cache geometry, cost model and machine configuration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw.params import (CacheGeometry, CostModel, L2Geometry,
                             MachineConfig, apply_geometry, small_machine)


class TestCacheGeometry:
    def test_default_is_the_720_data_cache(self):
        geo = CacheGeometry()
        assert geo.size == 256 * 1024
        assert geo.num_cache_pages == 64
        assert geo.lines_per_page == 128
        assert geo.words_per_line == 8

    def test_way_span_and_sets(self):
        geo = CacheGeometry(size=16 * 1024, line_size=32)
        assert geo.num_sets == 512
        assert geo.way_span == 16 * 1024
        assert geo.num_cache_pages == 4

    def test_associativity_divides_span(self):
        geo = CacheGeometry(size=32 * 1024, associativity=2)
        assert geo.way_span == 16 * 1024
        assert geo.num_cache_pages == 4

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size=3000)

    def test_rejects_way_smaller_than_page(self):
        # Each way must span whole pages (the Section 4 hardware
        # requirement that makes cache pages well defined).
        with pytest.raises(ConfigurationError):
            CacheGeometry(size=2048, page_size=4096)

    def test_set_index_uses_line_granularity(self):
        geo = CacheGeometry(size=16 * 1024)
        assert geo.set_index(0) == 0
        assert geo.set_index(32) == 1
        assert geo.set_index(16 * 1024) == 0  # wraps at the way span

    def test_cache_page_wraps(self):
        geo = CacheGeometry(size=16 * 1024)   # 4 cache pages
        assert geo.cache_page(0) == 0
        assert geo.cache_page(4096 * 5) == 1

    def test_aligned(self):
        geo = CacheGeometry(size=16 * 1024)
        assert geo.aligned(0, 4 * 4096)
        assert not geo.aligned(0, 5 * 4096)


class TestCostModel:
    def test_resident_flush_seven_times_nonresident(self):
        cost = CostModel()
        assert cost.flush_line_hit == 7 * cost.flush_line_miss

    def test_purge_no_cheaper_than_flush(self):
        # "the 720 appears to purge no more quickly than it flushes"
        cost = CostModel()
        assert cost.purge_line_hit >= cost.flush_line_hit
        assert cost.purge_line_miss >= cost.flush_line_miss

    def test_seconds_at_50mhz(self):
        cost = CostModel()
        assert cost.seconds(50_000_000) == pytest.approx(1.0)

    def test_zero_costs_are_accepted(self):
        assert CostModel(purge_line_hit=0, purge_line_miss=0).purge_line_hit == 0

    @pytest.mark.parametrize("field,value,message", [
        ("cache_hit", -1, "cache_hit must be non-negative"),
        ("cache_hit", 1.5, "cache_hit must be an integer"),
        ("line_fill", "20", "line_fill must be an integer"),
        ("flush_line_hit", True, "flush_line_hit must be an integer"),
        ("tlb_hit", None, "tlb_hit must be an integer"),
        ("clock_hz", 0, "clock_hz must be positive"),
        ("clock_hz", -50, "clock_hz must be non-negative"),
    ])
    def test_a_bad_field_is_a_configuration_error(self, field, value,
                                                  message):
        """The clock adds some costs directly, past ``Clock.advance``'s
        checks, so every field is checked when the model is built."""
        with pytest.raises(ConfigurationError, match=message):
            CostModel(**{field: value})


class TestMachineConfig:
    def test_default_has_split_caches(self):
        config = MachineConfig()
        assert config.dcache.size != config.icache.size
        assert config.page_size == 4096

    def test_rejects_mismatched_page_sizes(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(icache=CacheGeometry(page_size=8192,
                                               size=128 * 1024))

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(phys_pages=0)

    def test_small_machine_overrides(self):
        config = small_machine(phys_pages=32)
        assert config.phys_pages == 32
        assert config.dcache.num_cache_pages == 4
        assert config.icache.num_cache_pages == 2


class TestL2Geometry:
    def test_defaults(self):
        geo = L2Geometry()
        assert geo.size == 256 * 1024
        assert geo.associativity == 4
        assert geo.num_sets == geo.size // (geo.line_size
                                            * geo.associativity)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            L2Geometry(size=100 * 1000)
        with pytest.raises(ConfigurationError):
            L2Geometry(associativity=3)

    def test_machine_config_requires_matching_line_size(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(l2=L2Geometry(line_size=64))

    def test_machine_config_rejects_negative_victim_lines(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(victim_lines=-1)

    def test_has_hierarchy(self):
        assert not MachineConfig().has_hierarchy
        assert MachineConfig(victim_lines=4).has_hierarchy
        assert MachineConfig(l2=L2Geometry()).has_hierarchy


class TestApplyGeometry:
    def test_tokens_compose(self):
        config = apply_geometry(MachineConfig(), "2way+victim8+l2:64k/8")
        assert config.dcache.associativity == 2
        assert config.victim_lines == 8
        assert config.l2.size == 64 * 1024
        assert config.l2.associativity == 8
        assert config.l2.line_size == config.dcache.line_size

    def test_input_config_is_unchanged(self):
        base = MachineConfig()
        apply_geometry(base, "4way+victim4")
        assert base.dcache.associativity == 1
        assert base.victim_lines == 0

    def test_policy_tokens(self):
        config = apply_geometry(MachineConfig(), "wt+pi")
        assert config.dcache.write_through
        assert config.dcache.physically_indexed

    def test_one_way_and_victim0_are_the_identity(self):
        base = MachineConfig()
        assert apply_geometry(base, "1way+victim0") == base

    def test_l2_size_suffixes(self):
        assert apply_geometry(MachineConfig(), "l2:1m").l2.size == 2**20
        assert apply_geometry(MachineConfig(), "l2").l2 == L2Geometry()

    def test_rejects_unknown_tokens(self):
        for bad in ("3ways", "victimx", "l2:64k/x", "nope"):
            with pytest.raises(ConfigurationError):
                apply_geometry(MachineConfig(), bad)

    def test_rejects_digits_int_cannot_read(self):
        # str.isdigit admits superscripts, which int() rejects.
        for bad in ("\u00b2way", "victim\u00b2", "l2:64k/\u00b2"):
            with pytest.raises(ConfigurationError):
                apply_geometry(MachineConfig(), bad)

    TOKEN = st.one_of(
        st.sampled_from(["1way", "2way", "4way", "8way", "0way", "3way",
                         "victim0", "victim8", "l2", "l2:64k/4", "l2:1m",
                         "l2:64k/3", "l2:x", "wt", "pi", "WT", ""]),
        st.text(max_size=8))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), st.lists(TOKEN, max_size=4).map("+".join)))
    def test_every_string_applies_or_is_a_configuration_error(self, spec):
        try:
            config = apply_geometry(MachineConfig(), spec)
        except ConfigurationError:
            return
        assert isinstance(config, MachineConfig)

    def test_rejects_illegal_resulting_shape(self):
        # 8 ways of the 16 KiB small-machine dcache would leave each way
        # smaller than a page — the paper's first hardware requirement.
        with pytest.raises(ConfigurationError):
            apply_geometry(small_machine(), "8way")
