"""Self-contained HTML simulation reports (the Daisen-style view).

:func:`export_html_report` renders one :class:`SimulationResult` as a
single HTML file with no external dependencies: a summary header, an SVG
Gantt chart (one lane per GPU and per network link, compute bars coloured
by phase, transfers in a neutral tone), per-phase and per-resource
utilization tables, and the slowest operators.  Open it in any browser.

For interactive deep-dives prefer the Chrome trace-event export
(:func:`repro.core.timeline.export_chrome_trace`); this report is the
shareable one-file artifact.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from repro.core.results import SimulationResult, Timeline, TimelineRecord
from repro.core.timeline import timeline_summary

_PHASE_COLORS = {
    "forward": "#4878a8",
    "backward": "#a85448",
    "optimizer": "#6aa84f",
    None: "#999999",
}
_TRANSFER_COLOR = "#c9a227"

_LANE_HEIGHT = 22
_LANE_GAP = 4
_LABEL_WIDTH = 170
_CHART_WIDTH = 1000

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #222; max-width: 75em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin-top: .5em; }
td, th { border: 1px solid #ccc; padding: .25em .6em; font-size: .85em;
         text-align: right; }
th { background: #f2f2f2; } td:first-child, th:first-child { text-align: left; }
.legend span { display: inline-block; margin-right: 1.2em; font-size: .85em; }
.legend i { display: inline-block; width: .9em; height: .9em;
            margin-right: .3em; vertical-align: -0.1em; }
svg text { font-size: 11px; font-family: inherit; }
"""


def _lane_order(timeline: Timeline) -> List[str]:
    gpus = timeline.distinct(
        "resource", timeline.where("kind", lambda kind: kind == "compute"))
    links = timeline.distinct(
        "resource", timeline.where("kind", lambda kind: kind == "transfer"))
    return sorted(gpus) + sorted(links)


def _slowest(timeline: Timeline, top: int) -> List[TimelineRecord]:
    """The *top* longest rows, longest first (ties in timeline order)."""
    order = np.argsort(-timeline.durations(), kind="stable")[:top]
    return [timeline[index] for index in order.tolist()]


def _svg_gantt(result: SimulationResult, max_bars: int = 4000) -> str:
    records = result.timeline
    lanes = _lane_order(records)
    if not lanes:
        return "<p>(no timeline recorded)</p>"
    span = result.total_time or 1.0
    scale = _CHART_WIDTH / span
    height = len(lanes) * (_LANE_HEIGHT + _LANE_GAP) + 30
    lane_index = {name: i for i, name in enumerate(lanes)}
    parts = [
        f'<svg width="{_LABEL_WIDTH + _CHART_WIDTH + 20}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    for name, idx in lane_index.items():
        y = idx * (_LANE_HEIGHT + _LANE_GAP)
        parts.append(
            f'<text x="0" y="{y + 15}">{html.escape(name)}</text>'
            f'<rect x="{_LABEL_WIDTH}" y="{y}" width="{_CHART_WIDTH}" '
            f'height="{_LANE_HEIGHT}" fill="#f7f7f7"/>'
        )
    shown: Iterable[TimelineRecord] = records
    if len(records) > max_bars:
        # Keep the longest bars; tiny slivers are invisible anyway.
        shown = _slowest(records, max_bars)
    for record in shown:
        y = lane_index[record.resource] * (_LANE_HEIGHT + _LANE_GAP)
        x = _LABEL_WIDTH + record.start * scale
        width = max(record.duration * scale, 0.4)
        color = (_TRANSFER_COLOR if record.kind == "transfer"
                 else _PHASE_COLORS.get(record.phase, _PHASE_COLORS[None]))
        title = (f"{record.name}: {record.start * 1e3:.3f}-"
                 f"{record.end * 1e3:.3f} ms")
        parts.append(
            f'<rect x="{x:.2f}" y="{y + 2}" width="{width:.2f}" '
            f'height="{_LANE_HEIGHT - 4}" fill="{color}">'
            f'<title>{html.escape(title)}</title></rect>'
        )
    # Time axis.
    axis_y = len(lanes) * (_LANE_HEIGHT + _LANE_GAP) + 12
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _LABEL_WIDTH + frac * _CHART_WIDTH
        parts.append(
            f'<text x="{x:.0f}" y="{axis_y}">{frac * span * 1e3:.2f} ms</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _phase_table(result: SimulationResult) -> str:
    rows = "".join(
        f"<tr><td>{html.escape(phase)}</td><td>{t * 1e3:.2f}</td></tr>"
        for phase, t in sorted(result.per_phase.items())
    )
    return (
        "<table><tr><th>phase</th><th>busy ms (all GPUs)</th></tr>"
        f"{rows}</table>"
    )


def _utilization_table(result: SimulationResult) -> str:
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td>"
        f"<td>{stats['busy'] * 1e3:.2f}</td>"
        f"<td>{stats['utilization'] * 100:.1f}%</td></tr>"
        for name, stats in timeline_summary(result).items()
    )
    return (
        "<table><tr><th>resource</th><th>busy ms</th><th>utilization</th>"
        f"</tr>{rows}</table>"
    )


def _slowest_table(result: SimulationResult, top: int = 15) -> str:
    slowest = _slowest(result.timeline, top)
    rows = "".join(
        f"<tr><td>{html.escape(r.name)}</td><td>{html.escape(r.resource)}</td>"
        f"<td>{r.duration * 1e3:.3f}</td></tr>"
        for r in slowest
    )
    return (
        "<table><tr><th>task</th><th>resource</th><th>ms</th></tr>"
        f"{rows}</table>"
    )


def export_html_report(result: SimulationResult, path: Union[str, Path],
                       title: str = "TrioSim simulation report") -> int:
    """Write a one-file HTML report; returns the timeline bar count.

    Requires a result recorded with ``record_timeline=True``.
    """
    if not result.timeline:
        raise ValueError(
            "result has no timeline; construct TrioSim with "
            "record_timeline=True"
        )
    legend = "".join(
        f'<span><i style="background:{color}"></i>{name}</span>'
        for name, color in (("forward", _PHASE_COLORS["forward"]),
                            ("backward", _PHASE_COLORS["backward"]),
                            ("optimizer", _PHASE_COLORS["optimizer"]),
                            ("transfer", _TRANSFER_COLOR))
    )
    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{html.escape(title)}</title>
<style>{_CSS}</style></head><body>
<h1>{html.escape(title)}</h1>
<p>total <b>{result.total_time * 1e3:.2f} ms</b> ·
compute busy {result.compute_time * 1e3:.2f} ms ·
communication busy {result.communication_time * 1e3:.2f} ms
({result.communication_ratio * 100:.1f}%) ·
simulated in {result.wall_time * 1e3:.0f} ms wall
({result.events} events)</p>
<h2>Timeline</h2>
<div class="legend">{legend}</div>
{_svg_gantt(result)}
<h2>Per-phase compute</h2>
{_phase_table(result)}
<h2>Resource utilization</h2>
{_utilization_table(result)}
<h2>Slowest tasks</h2>
{_slowest_table(result)}
</body></html>"""
    Path(path).write_text(doc)
    return len(result.timeline)
