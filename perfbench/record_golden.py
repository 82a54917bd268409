"""Record ``golden.json``: the default seed's outputs at this commit.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/record_golden.py

Simulates every point of every workload's default-seed pool directly
with ``TrioSim(...).run()`` and stores ``total_time``,
``iteration_times`` and ``network.bytes_delivered`` per point label.
The sweep workload's points are recorded from direct runs too, so its
check also asserts that the sweep service matches a direct run.
Re-record only when a change is meant to alter simulated outputs.
"""

from __future__ import annotations

import json
import math

import checks
import workloads as wl
from names import WORKLOADS


def oracle_error_pct(seed: int) -> float:
    """Mean |predicted - measured| / measured (percent) over the sweep's
    native-bandwidth points, from direct runs."""
    traces = wl.collect_traces("paper_sweep")
    points = wl.native_points(seed)
    measured = wl.oracle_measurements(points)
    errors = []
    for point in points:
        predicted = wl.run_point(traces, point).total_time
        errors.append(abs(predicted - measured[point.label])
                      / measured[point.label])
    return 100.0 * math.fsum(errors) / len(errors)


def main() -> None:
    seed = wl.DEFAULT_SEED
    golden = {}
    for workload in WORKLOADS:
        traces = wl.collect_traces(workload)
        if workload == "fabric_exact":
            points = [wl.fabric_point(seed, i) for i in range(wl.FABRIC_POOL)]
        elif workload == "pipeline_timeline":
            points = [wl.pipeline_point(seed, i)
                      for i in range(wl.PIPELINE_POOL)]
        else:
            points = [p for group in wl.sweep_groups(seed).values()
                      for p in group]
        golden[workload] = {
            p.label: checks.golden_entry(wl.run_point(traces, p))
            for p in points
        }
        print(f"{workload}: {len(points)} points", flush=True)
    golden["values"] = {"oracle_error_pct": oracle_error_pct(seed)}
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1,
                                             sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
