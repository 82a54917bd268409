"""Output checks: golden values for the default seed, invariants on any.

A point fails if it raised, or if any of these does not hold:

* for :data:`workloads.DEFAULT_SEED`, ``total_time``, ``iteration_times``
  and ``network.bytes_delivered`` equal the values in ``golden.json``
  exactly;
* iteration times sum to the total;
* bytes delivered equal the bytes the plan's transfers send;
* a repeated point gives a bit-identical result;
* a result served from the cache equals the fresh one;
* on any seed, the sweep's mean error against the hardware oracle over
  its native-bandwidth points equals its golden value exactly.

Event counts and dispatch digests are layer counts, not outputs, and are
not checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from repro import PlanCache, TrioSim

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def golden_entry(result) -> dict:
    return {
        "total_time": result.total_time,
        "iteration_times": list(result.iteration_times),
        "bytes_delivered": result.network.get("bytes_delivered"),
    }


def load_golden(workload: str) -> Dict[str, dict]:
    try:
        data = json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {}
    return data.get(workload, {})


def simulated_content(result) -> tuple:
    """Every simulated output of a result: what bit-identity compares.

    Excludes ``wall_time``, ``events`` and ``profile``, which describe
    how the result was produced, not what was simulated.
    """
    return (result.total_time, result.compute_time,
            result.communication_time, result.per_gpu_busy,
            result.per_layer, result.per_phase, result.iteration_times,
            result.network, result.timeline)


class Checker:
    """Checks results and counts failures against attempts."""

    def __init__(self, workload: str, golden: bool, traces: dict):
        self.golden = load_golden(workload) if golden else None
        self.traces = traces
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.problems: List[str] = []
        self._sent: Dict[str, float] = {}
        self._first: Dict[str, tuple] = {}
        #: Labels whose timeline-carrying results are kept for the
        #: repeat check; results without a timeline are always kept.
        self.keep: set = set()

    def _bytes_sent(self, point, plans_dir: Optional[Path]) -> float:
        sim = TrioSim(self.traces[point.trace_key], point.config,
                      record_timeline=False)
        key = sim.plan_key()
        sent = self._sent.get(key)
        if sent is None:
            plan = None
            if plans_dir is not None:
                plan = PlanCache(root=plans_dir).get(key)
            if plan is None:
                plan = sim.build_plan()
            sent = sum(t.nbytes for t in plan.tasks if t.kind == "transfer")
            self._sent[key] = sent
        return sent * point.config.iterations

    def problems_of(self, point, result, plans_dir=None) -> List[str]:
        found = []
        if self.golden is not None:
            want = self.golden.get(point.label)
            if want is None:
                found.append("no golden value recorded")
            else:
                self.golden_checked += 1
                if golden_entry(result) != want:
                    found.append(f"golden mismatch: {golden_entry(result)} "
                                 f"!= {want}")
        times = result.iteration_times
        if times and not math.isclose(sum(times), result.total_time,
                                      rel_tol=1e-9, abs_tol=0.0):
            found.append(f"iteration times sum to {sum(times)!r}, "
                         f"total is {result.total_time!r}")
        delivered = result.network.get("bytes_delivered", 0.0)
        sent = self._bytes_sent(point, plans_dir)
        if not math.isclose(delivered, sent, rel_tol=1e-9, abs_tol=0.0):
            found.append(f"{delivered!r} bytes delivered, {sent!r} sent")
        content = simulated_content(result)
        first = self._first.get(point.label)
        if first is None:
            if not result.timeline or point.label in self.keep:
                self._first[point.label] = content
        elif first != content:
            found.append("repeated point differs from its first result")
        return found

    def check(self, point, result, error: Optional[str] = None,
              plans_dir: Optional[Path] = None) -> bool:
        """Record one attempted point; True when it passed."""
        self.attempted += 1
        found = [error] if error else self.problems_of(point, result,
                                                       plans_dir)
        if found:
            self.failed += 1
            self.problems.extend(f"{point.label}: {p}" for p in found)
        return not found

    def check_value(self, name: str, value) -> bool:
        """Check one run-level output against its golden value, which
        holds for every seed."""
        self.attempted += 1
        want = load_golden("values").get(name)
        if value != want:
            self.failed += 1
            self.problems.append(f"{name}: {value!r} != golden {want!r}")
            return False
        return True

    def check_outcome(self, point, outcome, plans_dir=None) -> bool:
        error = None
        if outcome.result is None:
            kind = outcome.error.kind if outcome.error else "Unknown"
            msg = outcome.error.message if outcome.error else ""
            error = f"{kind}: {msg}"
        return self.check(point, outcome.result, error, plans_dir)
