"""ASCII charts for the evaluation results.

Terminal-friendly visualizations of the configuration ladder: horizontal
bars for elapsed time and for the cache-management operation counts, so
the A→F story is visible at a glance in the CLI and the bench artifacts.
"""

from __future__ import annotations

from repro.analysis.metrics import RunMetrics

BAR_WIDTH = 40


def _bar(value: float, maximum: float, width: int = BAR_WIDTH) -> str:
    if maximum <= 0:
        return ""
    filled = round(width * value / maximum)
    return "#" * filled


def render_ladder_chart(metrics: list[RunMetrics],
                        title: str | None = None) -> str:
    """Bar chart of one benchmark across the configuration ladder."""
    if not metrics:
        return "(no data)"
    lines = []
    workload = metrics[0].workload_name
    lines.append(title or f"{workload}: elapsed time by configuration")
    max_seconds = max(m.seconds for m in metrics)
    for m in metrics:
        lines.append(f"  {m.config_name:<3} {m.seconds:>8.4f}s "
                     f"|{_bar(m.seconds, max_seconds)}")
    lines.append("")
    lines.append(f"{workload}: cache management operations")
    max_ops = max(m.page_flushes + m.page_purges for m in metrics) or 1
    for m in metrics:
        ops = m.page_flushes + m.page_purges
        flush_part = round(BAR_WIDTH * m.page_flushes / max_ops)
        purge_part = round(BAR_WIDTH * m.page_purges / max_ops)
        lines.append(f"  {m.config_name:<3} {ops:>8} "
                     f"|{'F' * flush_part}{'P' * purge_part}")
    lines.append("      (F = flushes, P = purges)")
    return "\n".join(lines)
