"""Tests for the experiment harness: the paper's shape claims hold.

These are the assertions behind EXPERIMENTS.md: not absolute numbers, but
orderings and rough factors.
"""

import pytest

from repro.analysis.comparison import render_table5, table5_matrix
from repro.analysis.experiments import (evaluation_machine, run_alignment_micro,
                                        run_table1, run_table4,
                                        run_table5_probe, run_workload,
                                        make_workload)
from repro.analysis.tables import (render_micro, render_overhead_summary,
                                   render_table1, render_table4)
from repro.errors import ConfigurationError
from repro.farm import Executor, JobSpec
from repro.vm.policy import CONFIG_LADDER

SCALE = 0.25


@pytest.fixture(scope="module")
def table1_rows():
    return run_table1(scale=SCALE)


@pytest.fixture(scope="module")
def table4_results():
    return run_table4(scale=SCALE, workload_names=("kernel-build",))


class TestTable1Shape:
    def test_new_system_wins_every_benchmark(self, table1_rows):
        for row in table1_rows:
            assert row.new.seconds < row.old.seconds

    def test_gains_in_the_papers_band(self, table1_rows):
        # Paper: 5% to 10%.  Allow a generous band around it.
        for row in table1_rows:
            assert 2.0 < row.gain_percent < 30.0

    def test_flushes_and_purges_collapse(self, table1_rows):
        for row in table1_rows:
            assert row.new.page_flushes < row.old.page_flushes / 3

    def test_render(self, table1_rows):
        text = render_table1(table1_rows)
        assert "afs-bench" in text and "kernel-build" in text


class TestTable4Shape:
    def test_six_configs_per_benchmark(self, table4_results):
        for metrics in table4_results.values():
            assert [m.config_name for m in metrics] == list("ABCDEF")

    def test_elapsed_time_never_increases_much_down_the_ladder(
            self, table4_results):
        for metrics in table4_results.values():
            times = [m.seconds for m in metrics]
            for earlier, later in zip(times, times[1:]):
                assert later <= earlier * 1.05

    def test_mapping_faults_constant_once_lazy(self, table4_results):
        # Section 5.1: "mapping faults remain almost constant across
        # configurations" — among the lazy configs B..F, which share the
        # fault structure; A converts many consistency faults into
        # re-mapping faults by breaking mappings.
        for metrics in table4_results.values():
            lazy = [m.mapping_faults.count for m in metrics[1:]]
            assert max(lazy) - min(lazy) <= max(lazy) * 0.1

    def test_consistency_faults_drop_substantially(self, table4_results):
        for metrics in table4_results.values():
            assert (metrics[-1].consistency_faults.count
                    <= metrics[1].consistency_faults.count / 5)

    def test_need_data_trades_flushes_for_purges(self, table4_results):
        # D -> E: "the decrease in data cache flushes is offset by an
        # equivalent increase in data cache purges".
        for metrics in table4_results.values():
            d, e = metrics[3], metrics[4]
            flush_drop = d.dcache_flushes.count - e.dcache_flushes.count
            purge_rise = e.dcache_purges.count - d.dcache_purges.count
            assert flush_drop > 0
            assert abs(purge_rise - flush_drop) <= max(3, flush_drop * 0.3)

    def test_final_config_flushes_are_dma_and_d2i_only(self, table4_results):
        # Section 5.1: "the number of page flushes is equal to the number
        # of DMA-read flushes plus the number of pages copied from data
        # space into instruction space."
        for metrics in table4_results.values():
            final = metrics[-1]
            assert final.dcache_flushes.count == (
                final.dma_read_flushes.count + final.d_to_i_flushes.count)

    def test_overhead_is_a_small_fraction(self, table4_results):
        # Paper: 0.22% for F; we only require "well under a few percent".
        for metrics in table4_results.values():
            assert metrics[-1].consistency_overhead_fraction < 0.05

    def test_render(self, table4_results):
        text = render_table4(table4_results)
        assert "kernel-build" in text
        summary = render_overhead_summary(
            [metrics[-1] for metrics in table4_results.values()])
        assert "virtually-indexed-cache overhead" in summary


class TestMicrobenchShape:
    def test_alignment_three_orders_of_magnitude(self):
        aligned, unaligned = run_alignment_micro(iterations=1000)
        assert unaligned.cycles > 100 * aligned.cycles
        text = render_micro(aligned, unaligned)
        assert "slowdown" in text


class TestTable5:
    def test_matrix_matches_paper_claims(self):
        matrix = {t.name: t for t in table5_matrix()}
        assert matrix["CMU"].lazy_unmap and matrix["CMU"].exploits_need_data
        assert not matrix["Utah"].lazy_unmap
        assert matrix["Tut"].lazy_unmap
        assert matrix["Tut"].state_granularity == "virtual address"
        assert matrix["Sun"].state_granularity == "none (eager)"

    def test_probe_measurements(self):
        measurements = run_table5_probe(scale=SCALE)
        by_name = {m.config_name: m for m in measurements}
        # CMU performs the least cache management on the probe.
        for other in ("Utah", "Apollo", "Sun"):
            assert (by_name["CMU"].page_flushes
                    < by_name[other].page_flushes)
        text = render_table5(measurements)
        assert "CMU" in text and "Measured" in text


class TestHarness:
    def test_make_workload_names(self):
        for name in ("afs-bench", "latex-paper", "kernel-build"):
            assert make_workload(name, 0.25).name == name

    def test_unknown_workload_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown workload 'nope'"):
            make_workload("nope")

    def test_a_farm_job_naming_an_unknown_workload_fails_typed(self):
        spec = JobSpec.workload(workload="nope", policy="F", scale=0.1)
        (outcome,) = Executor(jobs=1, retries=0).run([spec])
        assert not outcome.ok
        assert "ConfigurationError: unknown workload 'nope'" in \
            outcome.failure.message

    def test_run_workload_reports_config(self):
        metrics = run_workload(make_workload("latex-paper", SCALE),
                               CONFIG_LADDER[-1])
        assert metrics.config_name == "F"
        assert metrics.cycles > 0

    def test_evaluation_machine_overridable(self):
        config = evaluation_machine(phys_pages=64)
        assert config.phys_pages == 64
