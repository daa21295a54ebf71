"""The injector's scheduling semantics: determinism, windows, bursts,
caps, scoping, and the audit trail."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import (ALL_POINTS, CONSISTENCY_POINTS, DIVERGENCE_POINTS,
                          RECOVERABLE_POINTS, TERMINAL_POINTS, FaultInjector,
                          FaultPlan, FaultRule)
from repro.hw.stats import Clock


def injector(*rules, seed=0, clock=None):
    return FaultInjector(FaultPlan(seed=seed, rules=tuple(rules)),
                         clock or Clock())


class TestCatalog:
    def test_catalog_partitions_cleanly(self):
        assert DIVERGENCE_POINTS <= CONSISTENCY_POINTS
        assert not CONSISTENCY_POINTS & RECOVERABLE_POINTS
        assert not CONSISTENCY_POINTS & TERMINAL_POINTS
        assert ALL_POINTS == (CONSISTENCY_POINTS | RECOVERABLE_POINTS
                              | TERMINAL_POINTS)

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("pmap.flush.typo")

    def test_rate_and_burst_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRule("pmap.flush.drop", rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule("pmap.flush.drop", burst=0)


class TestPlanParsing:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("disk.read.transient:0.1:2,pmap.flush.drop",
                               seed=7)
        assert plan.seed == 7
        assert plan.rules[0] == FaultRule("disk.read.transient", rate=0.1,
                                          burst=2)
        assert plan.rules[1].rate == 1.0

    def test_parse_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("  , ")

    @pytest.mark.parametrize("spec", [
        "pmap.flush.drop:abc",            # a rate that is not a number
        "pmap.flush.drop:0.5:2:9",        # a fourth field
        "pmap.flush.drop:0.5:1.5",        # a burst that is not an integer
        "pmap.flush.drop:nan",
        "pmap.flush.drop:0.5:0",
        ":0.5",
    ])
    def test_parse_rejects_malformed_items(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    FIELD = st.one_of(st.sampled_from(["0", "0.5", "1", "1.0", "2", "-1",
                                       "1e9", "inf", "nan", "", "x"]),
                      st.text(max_size=4))
    ITEM = st.one_of(
        st.text(max_size=12),
        st.builds(lambda point, fields: ":".join([point] + fields),
                  st.sampled_from(sorted(ALL_POINTS)),
                  st.lists(FIELD, max_size=4)))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), st.lists(ITEM, max_size=4).map(",".join)))
    def test_every_string_parses_or_is_a_configuration_error(self, spec):
        try:
            plan = FaultPlan.parse(spec)
        except ConfigurationError:
            return
        assert plan.rules
        assert all(rule.point in ALL_POINTS for rule in plan.rules)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            inj = injector(FaultRule("pmap.flush.drop", rate=0.5), seed=seed)
            return [inj.fires("pmap.flush.drop") is not None
                    for _ in range(64)]

        assert decisions(3) == decisions(3)
        assert decisions(3) != decisions(4)  # and the seed matters

    def test_rate_one_always_fires_without_consuming_entropy(self):
        inj = injector(FaultRule("pmap.flush.drop"))
        before = inj.rng.getstate()
        assert inj.fires("pmap.flush.drop") is not None
        assert inj.rng.getstate() == before


class TestScheduling:
    def test_unarmed_point_never_fires(self):
        inj = injector(FaultRule("pmap.flush.drop"))
        assert inj.fires("pmap.purge.drop") is None

    def test_max_fires_caps_rate_triggers(self):
        inj = injector(FaultRule("pmap.flush.drop", max_fires=2))
        fired = [inj.fires("pmap.flush.drop") for _ in range(5)]
        assert sum(r is not None for r in fired) == 2

    def test_burst_forces_consecutive_failures(self):
        # One rate-trigger plus two burst continuations = three in a row.
        inj = injector(FaultRule("disk.read.transient", burst=3, max_fires=1))
        fired = [inj.fires("disk.read.transient") for _ in range(5)]
        assert [r is not None for r in fired] == [True, True, True,
                                                  False, False]

    def test_window_gates_on_simulated_clock(self):
        clock = Clock()
        inj = injector(FaultRule("pmap.flush.drop", start_cycles=100,
                                 stop_cycles=200), clock=clock)
        assert inj.fires("pmap.flush.drop") is None       # before window
        clock.advance(150)
        assert inj.fires("pmap.flush.drop") is not None   # inside
        clock.advance(100)
        assert inj.fires("pmap.flush.drop") is None       # after

    def test_paused_scope_suppresses_and_restores(self):
        inj = injector(FaultRule("pmap.flush.drop"))
        with inj.paused():
            assert inj.fires("pmap.flush.drop") is None
        assert inj.fires("pmap.flush.drop") is not None

    def test_disable_is_terminal_until_enable(self):
        inj = injector(FaultRule("pmap.flush.drop"))
        inj.disable()
        assert inj.fires("pmap.flush.drop") is None
        inj.enable()
        assert inj.fires("pmap.flush.drop") is not None


class TestAuditTrail:
    def test_records_carry_clock_and_detail(self):
        clock = Clock()
        clock.advance(42)
        inj = injector(FaultRule("disk.read.transient"), clock=clock)
        record = inj.fires("disk.read.transient", file_id=3, page=1, ppage=9)
        assert record.cycles == 42
        assert record.ppage == 9
        assert record.detail["file_id"] == 3
        assert record.seq == 0
        record.resolve("recovered")
        assert "disk.read.transient" in str(record)
        assert "recovered" in str(record)

    def test_consistency_frames_collects_targeted_ppages(self):
        inj = injector(FaultRule("pmap.flush.drop"),
                       FaultRule("disk.read.transient"))
        inj.fires("pmap.flush.drop", ppage=5)
        inj.fires("disk.read.transient", ppage=6)   # recoverable, excluded
        assert inj.consistency_frames() == {5}

    def test_records_filter_by_point(self):
        inj = injector(FaultRule("pmap.flush.drop"),
                       FaultRule("pmap.purge.drop"))
        inj.fires("pmap.flush.drop", ppage=1)
        inj.fires("pmap.purge.drop", ppage=2)
        assert len(inj.records()) == 2
        assert [r.point for r in inj.records("pmap.purge.drop")] == \
            ["pmap.purge.drop"]
        assert inj.fired("pmap.flush.drop") == 1
