"""The chaos harness itself: determinism, the detected-or-harmless
verdicts per preset, and that the verifier actually rejects bad runs."""

import dataclasses

import pytest

from repro.core.oracle import Violation
from repro.faults import (FaultInjector, FaultPlan, build_plan, run_chaos,
                          run_chaos_suite, verify_report)
from repro.faults.harness import (PRESETS, ChaosReport, chaos_machine,
                                  render_suite)
from repro.kernel.kernel import Kernel
from repro.vm.policy import CONFIG_F

STEPS = 80  # short runs keep the suite quick; the CI job goes deeper


class TestPlanBuilding:
    def test_same_seed_same_plan(self):
        assert build_plan(5, "mixed") == build_plan(5, "mixed")
        assert build_plan(5, "mixed") != build_plan(6, "mixed")

    def test_control_preset_is_empty(self):
        assert build_plan(0, "control").rules == ()

    def test_unknown_preset_parses_as_explicit_plan(self):
        plan = build_plan(3, "pmap.flush.drop:0.5")
        assert plan.rules[0].point == "pmap.flush.drop"
        assert plan.seed == 3

    def test_presets_only_name_known_points(self):
        for preset, entries in PRESETS.items():
            for point, rate, burst in entries:
                rule_plan = build_plan(0, f"{point}:{rate}:{burst}")
                assert rule_plan.rules  # FaultRule validation accepted it


class TestChaosRuns:
    def test_control_run_is_clean_and_deep_verified(self):
        report = run_chaos(seed=0, preset="control", steps=STEPS)
        assert report.ok
        assert report.completed
        assert report.injections == 0
        assert report.violations == 0
        assert report.deep_verified

    def test_same_seed_reproduces_the_run_exactly(self):
        first = run_chaos(seed=11, preset="mixed", steps=STEPS)
        second = run_chaos(seed=11, preset="mixed", steps=STEPS)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    @pytest.mark.parametrize("preset",
                             ["transient", "consistency", "recovery",
                              "mixed"])
    def test_presets_uphold_the_invariant(self, preset):
        reports = run_chaos_suite(range(4), preset=preset, steps=STEPS)
        assert all(r.ok for r in reports), render_suite(reports)

    def test_trace_populates_the_event_summary(self):
        report = run_chaos(seed=1, preset="mixed", steps=STEPS, trace=True)
        assert report.event_summary
        assert report.event_summary.get("injection", 0) == report.injections

    def test_trace_defaults_off(self):
        report = run_chaos(seed=1, preset="mixed", steps=STEPS)
        assert report.event_summary == {}

    def test_trace_does_not_change_the_verdict(self):
        plain = run_chaos(seed=11, preset="mixed", steps=STEPS)
        traced = run_chaos(seed=11, preset="mixed", steps=STEPS, trace=True)
        plain_dict = dataclasses.asdict(plain)
        traced_dict = dataclasses.asdict(traced)
        plain_dict.pop("event_summary")
        traced_dict.pop("event_summary")
        assert plain_dict == traced_dict

    def test_transient_preset_never_records_violations(self):
        # No divergence-creating point is armed: recovery must fully
        # absorb every fault, so the oracle stays silent.
        for report in run_chaos_suite(range(4), preset="transient",
                                      steps=STEPS):
            assert report.violations == 0
            if report.completed:
                assert report.deep_verified

    def test_retries_show_up_in_the_clock(self):
        # The same seed with and without faults: the faulted run burns
        # strictly more simulated cycles whenever anything was absorbed.
        for seed in range(6):
            faulted = run_chaos(seed=seed, preset="transient", steps=STEPS)
            clean = run_chaos(seed=seed, preset="control", steps=STEPS)
            if faulted.completed and faulted.disk_retries:
                assert faulted.cycles > clean.cycles
                break
        else:
            pytest.skip("no seed in range produced an absorbed retry")


class TestVerifier:
    def _rig(self):
        kernel = Kernel(policy=CONFIG_F, config=chaos_machine(),
                        with_unix_server=False)
        kernel.machine.oracle.record_only = True
        injector = FaultInjector(FaultPlan(seed=0), kernel.machine.clock)
        injector.attach_kernel(kernel)
        report = ChaosReport(seed=0, preset="unit", steps=0, completed=True,
                             error=None, injections=0)
        return kernel, injector, report

    def test_unattributed_violation_fails_the_run(self):
        kernel, injector, report = self._rig()
        kernel.machine.oracle.violations.append(
            Violation(kind="cpu-read", paddr=0x5000, expected=1, actual=2))
        report.violations = 1
        verify_report(report, injector, kernel)
        assert not report.ok
        assert report.unattributed_violations == 1

    def test_attributed_violation_is_accepted(self):
        kernel, injector, report = self._rig()
        page_size = kernel.machine.page_size
        # No rules armed: fabricate the audit record directly.
        record = injector._record("pmap.flush.drop", {"ppage": 5})
        record.consequential = True
        kernel.machine.oracle.violations.append(
            Violation(kind="cpu-read", paddr=5 * page_size, expected=1,
                      actual=2))
        report.violations = 1
        verify_report(report, injector, kernel)
        assert report.ok

    def test_unobserved_consequential_read_prep_skip_fails(self):
        kernel, injector, report = self._rig()
        record = injector._record("pmap.dma_read_prep.skip", {"ppage": 7})
        record.consequential = True
        verify_report(report, injector, kernel)
        assert not report.ok
        assert any("never observed" in failure
                   for failure in report.failures)

    def test_harmless_read_prep_skip_is_accepted(self):
        kernel, injector, report = self._rig()
        record = injector._record("pmap.dma_read_prep.skip", {"ppage": 7})
        record.consequential = False
        verify_report(report, injector, kernel)
        assert report.ok
        assert record.resolution == "harmless"

    def test_masked_by_failed_transfer_is_accepted(self):
        kernel, injector, report = self._rig()
        skip = injector._record("pmap.dma_read_prep.skip", {"ppage": 7})
        skip.consequential = True
        injector._record("dma.transfer.corrupt", {"ppage": 7})
        verify_report(report, injector, kernel)
        assert report.ok
        assert skip.resolution == "masked-by-retry"


class TestConformanceShadow:
    def test_control_runs_shadow_clean(self):
        # Without divergence-creating injections the lockstep shadow must
        # agree with the Table 2 model exactly.
        report = run_chaos(seed=0, preset="control", steps=STEPS)
        assert report.ok
        assert report.conform_events > 0
        assert report.conform_divergences == 0
        assert report.conform_unattributed == 0

    def test_consistency_divergences_are_attributed(self):
        # Dropped flushes/purges and skipped preparations make the shadow
        # diverge — every divergence must land on an injected frame.
        reports = run_chaos_suite(range(6), preset="consistency",
                                  steps=STEPS)
        assert all(r.ok for r in reports), render_suite(reports)
        assert all(r.conform_unattributed == 0 for r in reports)
        assert any(r.conform_divergences > 0 for r in reports), \
            "no seed made the shadow diverge; the shadow may be blind"

    def test_conform_can_be_disabled(self):
        report = run_chaos(seed=0, preset="control", steps=40,
                           conform=False)
        assert report.ok
        assert report.conform_events == 0

    def test_unattributed_divergence_fails_the_run(self):
        from repro.conformance.lockstep import ConformanceMonitor, Divergence

        kernel = Kernel(policy=CONFIG_F, config=chaos_machine(),
                        with_unix_server=False)
        kernel.machine.oracle.record_only = True
        injector = FaultInjector(FaultPlan(seed=0), kernel.machine.clock)
        injector.attach_kernel(kernel)
        monitor = ConformanceMonitor(kernel, record_only=True)
        monitor.shadows[0].divergences.append(
            Divergence(seq=0, kind="state-divergence", frame=9,
                       cache_page=0, detail="fabricated"))
        report = ChaosReport(seed=0, preset="unit", steps=0, completed=True,
                             error=None, injections=0)
        verify_report(report, injector, kernel, monitor)
        assert not report.ok
        assert report.conform_unattributed == 1


class TestRendering:
    def test_suite_summary_carries_the_verdict(self):
        reports = run_chaos_suite(range(2), preset="control", steps=40)
        text = render_suite(reports)
        assert "control" in text
        assert "detected-or-harmless" in text
        assert "conform-observed" in text
