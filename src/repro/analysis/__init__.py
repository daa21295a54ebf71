"""Experiment harness: run workloads under configurations, regenerate the
paper's tables."""

from repro.analysis.charts import render_comparison_chart, render_ladder_chart
from repro.analysis.comparison import SystemTraits, render_table5, table5_matrix
from repro.analysis.sweep import SweepPoint, render_sweep, run_sweep
from repro.analysis.trace import Tracer
from repro.analysis.experiments import (Table1Row, evaluation_machine,
                                        make_workload, run_alignment_micro,
                                        run_table1, run_table4,
                                        run_table5_probe, run_workload)
from repro.analysis.metrics import OpCost, RunMetrics, diff_metrics
from repro.analysis.tables import (render_micro, render_overhead_summary,
                                   render_table1, render_table4)

__all__ = [
    "RunMetrics", "OpCost", "diff_metrics", "run_workload", "run_table1",
    "run_table4", "run_table5_probe", "run_alignment_micro", "Table1Row",
    "make_workload", "evaluation_machine", "render_table1", "render_table4",
    "render_table5", "render_micro", "render_overhead_summary",
    "SystemTraits", "table5_matrix", "Tracer",
    "render_ladder_chart", "render_comparison_chart",
    "SweepPoint", "run_sweep", "render_sweep",
]
