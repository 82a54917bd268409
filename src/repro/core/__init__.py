"""TrioSim's core: the simulator facade and its task-graph machinery.

The public entry point is :class:`~repro.core.simulator.TrioSim`: give it a
single-GPU :class:`~repro.trace.Trace` and a
:class:`~repro.core.config.SimulationConfig`, call :meth:`run`, and read
the :class:`~repro.core.results.SimulationResult`.
"""

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult, Timeline, TimelineRecord
from repro.core.simulator import TrioSim
from repro.core.taskgraph import SimTask, TaskGraphSimulator
from repro.core.report import export_html_report
from repro.core.timeline import export_chrome_trace, timeline_summary, timeline_to_events

__all__ = [
    "SimTask",
    "export_chrome_trace",
    "export_html_report",
    "timeline_summary",
    "timeline_to_events",
    "SimulationConfig",
    "SimulationResult",
    "TaskGraphSimulator",
    "Timeline",
    "TimelineRecord",
    "TrioSim",
]
