"""Tests for the ASCII chart renderers."""

import pytest

from repro.analysis.charts import render_ladder_chart
from repro.analysis.experiments import run_table4


@pytest.fixture(scope="module")
def ladder():
    return run_table4(scale=0.25, workload_names=("latex-paper",))[
        "latex-paper"]


class TestLadderChart:
    def test_contains_every_configuration(self, ladder):
        chart = render_ladder_chart(ladder)
        for name in "ABCDEF":
            assert f"\n  {name} " in "\n" + chart

    def test_longest_bar_is_the_slowest_config(self, ladder):
        chart = render_ladder_chart(ladder)
        time_lines = [line for line in chart.splitlines()
                      if "s |" in line]
        slowest = max(ladder, key=lambda m: m.seconds)
        slowest_line = next(line for line in time_lines
                            if line.strip().startswith(slowest.config_name))
        longest = max(line.count("#") for line in time_lines)
        assert slowest_line.count("#") == longest  # ties allowed

    def test_ops_chart_marks_flush_and_purge(self, ladder):
        chart = render_ladder_chart(ladder)
        assert "(F = flushes, P = purges)" in chart

    def test_custom_title(self, ladder):
        assert render_ladder_chart(ladder, "hello").startswith("hello")

    def test_empty_input(self):
        assert render_ladder_chart([]) == "(no data)"
