"""Timeline export: visualize simulations (the Daisen analog).

The original TrioSim visualizes execution with Daisen; here the recorded
timeline exports to the Chrome trace-event format, which loads directly
into ``chrome://tracing`` or https://ui.perfetto.dev.  Each GPU and each
network link becomes a track; compute tasks and transfers become duration
events coloured by phase.

Usage::

    result = TrioSim(trace, config).run()
    export_chrome_trace(result, "timeline.json")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.core.results import SimulationResult, Timeline, TimelineRecord

#: Chrome trace-event colour names per phase (see catapult's colour list).
_PHASE_COLORS = {
    "forward": "thread_state_running",
    "backward": "thread_state_runnable",
    "optimizer": "thread_state_iowait",
    None: "generic_work",
}

_MICRO = 1e6  # trace events are in microseconds


def shift_records(records: Timeline, offsets: Sequence[float]) -> Timeline:
    """Copies of *records* translated along the timeline, one block of
    rows per offset in *offsets* (seconds), in that order.

    The replication primitive of steady-state iteration folding: a folded
    iteration's timeline is the last warm-up iteration's rows shifted by
    a whole number of steady-state periods (see ``docs/performance.md``).
    Names, kinds, resources, phases and layers are preserved (the copies
    share the source's text codes), so per-layer/per-phase aggregation
    and the Chrome trace export treat replicated rows exactly like
    simulated ones.  The shift is one broadcast ``start + offset`` (and
    ``end + offset``) over every block: the same IEEE additions as
    shifting row by row.
    """
    shifts = np.asarray(offsets, dtype=np.float64)[:, None]
    return records.tile((records.start + shifts).ravel(),
                        (records.end + shifts).ravel())


def timeline_to_events(records: Union[Timeline, Iterable[TimelineRecord]],
                       pid: int = 1) -> List[dict]:
    """Convert timeline rows to Chrome duration events ("ph": "X")."""
    timeline = records if isinstance(records, Timeline) else Timeline(records)
    resources = timeline.distinct("resource")
    track = {resource: tid for tid, resource in enumerate(resources)}
    tids = [track[r] for r in timeline.column("resource")]
    ts = (timeline.start * _MICRO).tolist()
    dur = np.maximum(timeline.durations() * _MICRO, 0.001).tolist()
    events: List[dict] = [
        {
            "name": name,
            "cat": kind,
            "ph": "X",
            "ts": start,
            "dur": length,
            "pid": pid,
            "tid": tid,
            "cname": _PHASE_COLORS.get(phase, "generic_work"),
            "args": {
                "phase": phase or "",
                "layer": layer or "",
            },
        }
        for name, kind, start, length, tid, phase, layer in zip(
            timeline.column("name"), timeline.column("kind"), ts, dur, tids,
            timeline.column("phase"), timeline.column("layer"))
    ]
    # Name the tracks: GPUs first, then links, in first-seen order.
    for tid, resource in enumerate(resources):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": resource},
        })
    return events


def export_chrome_trace(result: SimulationResult,
                        path: Union[str, Path],
                        process_name: str = "TrioSim") -> int:
    """Write *result*'s timeline as a Chrome trace file.

    Returns the number of duration events written.  Raises ``ValueError``
    when the result carries no timeline (run with ``record_timeline=True``).
    """
    if not result.timeline:
        raise ValueError(
            "result has no timeline; construct TrioSim with "
            "record_timeline=True"
        )
    events = timeline_to_events(result.timeline)
    events.append({
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": {"name": process_name},
    })
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload))
    return sum(1 for e in events if e.get("ph") == "X")


def timeline_summary(result: SimulationResult) -> Dict[str, Dict[str, float]]:
    """Per-resource busy time and utilization over the simulated span."""
    span = result.total_time or 1.0
    per_resource = result.timeline.total_by("resource")
    return {
        resource: {"busy": busy, "utilization": busy / span}
        for resource, busy in sorted(per_resource.items())
    }
