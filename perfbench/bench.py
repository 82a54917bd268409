"""One benchmark process: ``setup``, ``measure`` or ``trace`` a workload.

``run.py`` starts this file in fresh interpreters and reads the JSON
object it prints last.  Usage::

    PYTHONPATH=src python3 perfbench/bench.py <role> --workload NAME \\
        --seed N --seconds S --spawned <time.time() at spawn> --work DIR

* ``setup`` times a fresh interpreter to its first result: importing
  ``repro``, collecting the traces, and the first point (or session).
* ``measure`` does the same, then the closed loop of timed points (or
  sessions) with tracing off, then the output checks.
* ``trace`` runs the workload once untraced and once with the layer
  tracer on (see ``layers.py``), and reports the per-layer ledger.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

import checks
import layers
import stats
import workloads as wl
from names import WORKLOADS


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: Whole passes the timed loop of a ``measure`` run makes at least.
MIN_PASSES = 2

#: Iterations of the reference loop, and the seconds it is scaled to
#: (about its time on an uncontended 2.0 GHz Xeon core).
REFERENCE_ITERATIONS = 150_000
REFERENCE_S = 0.010


def host_speed(repeats: int = 1) -> float:
    """The host's speed now: :data:`REFERENCE_S` over the time of a
    fixed pure-Python loop (median of *repeats*), which runs no
    simulator code.

    Other tenants of a shared host slow every process on it by up to
    1.5x for minutes at a time.  A time multiplied by the speed
    measured just before it is the time at reference speed, which
    cancels that drift and keeps every change of the simulator's own
    cost.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - started)
    return REFERENCE_S / stats.median(times)


class Loop:
    """State of one workload run: traces, checker, and timing samples.

    The run repeats one seeded pass of calls (see ``workloads.py``), in
    whole passes, so every run times the same mix of calls.  Each call
    is timed in host wall seconds and, scaled by the host speed measured
    just before it (:func:`host_speed`), in reference seconds.
    """

    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        started = time.perf_counter()
        self.traces = wl.collect_traces(self.workload)
        self.collect_s = time.perf_counter() - started
        self.checker = checks.Checker(
            self.workload, golden=(args.seed == wl.DEFAULT_SEED),
            traces=self.traces)
        self.sweep = (wl.SweepState(Path(args.work))
                      if self.workload == "paper_sweep" else None)
        if self.sweep is None:
            self.units = wl.point_pass(self.workload, args.seed)
            # The repeat check keeps one timeline-carrying result.
            self.checker.keep.add(self.units[0].label)
        else:
            self.units = wl.sweep_pass(args.seed)
        self.position = 0      # next call of the pass
        self.pass_no = 0       # passes started; names the sweep's caches
        self.last_done = 0.0
        self.last_runner = None
        self.setup_wall_s = None
        self.reset_samples()

    def step(self, workers=None):
        """Run the next call of the pass and check its outputs; returns
        its wall seconds and its results."""
        position = self.position
        speed = host_speed()
        if self.sweep is None:
            point = self.units[position]
            started = time.perf_counter()
            result = wl.run_point(self.traces, point)
            wall = time.perf_counter() - started
            self.last_done = time.time()
            self.add_point(result.wall_time, speed)
            self.resolved += 1
            self.checker.check(point, result)
            results = [result]
        else:
            group, key, points = self.units[position]
            tag = f"p{self.pass_no}-{group}"
            started = time.perf_counter()
            runner, results = wl.run_session(self.traces, self.sweep, tag,
                                             key, points, workers)
            wall = time.perf_counter() - started
            self.last_done = time.time()
            self.last_runner = runner
            plans = self.sweep.dirs(tag)[1]
            for point, outcome in zip(points, results):
                self.resolved += 1
                if outcome.cached:
                    self.hits += 1
                elif outcome.result is not None:
                    self.add_point(outcome.result.wall_time, speed)
                self.checker.check_outcome(point, outcome, plans)
        self.session_wall.append(wall)
        self.session_s.append(wall * speed)
        self.speeds.append(speed)
        self.position = (position + 1) % len(self.units)
        if self.position == 0:
            self.passes += 1
            self.pass_no += 1
        return wall, results

    def add_point(self, wall: float, speed: float) -> None:
        self.point_wall.append(wall)
        self.point_s.append(wall * speed)

    def first_result(self, spawned: float) -> float:
        """Run the first call of a pass, which pays lazy set-up, and
        drop it from the samples; returns the reference seconds since
        *spawned* (the wall seconds go to ``setup_wall_s``)."""
        self.step()
        self.setup_wall_s = self.last_done - spawned
        self.restart()
        return self.setup_wall_s * host_speed(repeats=5)

    def restart(self):
        """Start a new pass from its first call, on empty sweep caches,
        and forget the samples."""
        self.position = 0
        self.pass_no += 1
        self.reset_samples()

    def reset_samples(self):
        # Simulator run seconds per fresh point, and wall seconds per
        # user call: at reference speed, and as measured.
        self.point_s, self.point_wall = [], []
        self.session_s, self.session_wall = [], []
        self.speeds = []          # host speed before each call
        self.resolved = 0         # points returned, cache hits included
        self.hits = 0
        self.passes = 0           # passes completed

    def timed(self, seconds: float, workers=None, on_step=None,
              min_passes=0):
        """Closed loop until *seconds* of call wall time are measured.

        With *min_passes*, the loop also ends only on a pass boundary
        and after that many whole passes, so every run times the same
        mix of calls.
        """
        while (sum(self.session_wall) < seconds
               or (min_passes and (self.position or
                                   self.passes < min_passes))):
            gc.collect()
            wall, results = self.step(workers)
            if on_step is not None:
                on_step(wall, results)
            del results

    def oracle_error_pct(self, measured):
        """Mean |predicted - measured| / measured over native points,
        simulated afresh in-process; the checker compares each with the
        timed loop's result for the same point."""
        by_trace = {}
        for point in wl.native_points(self.args.seed):
            by_trace.setdefault(point.trace_key, []).append(point)
        errors = []
        for key, group in by_trace.items():
            _runner, outcomes = wl.run_session(
                self.traces, self.sweep, "oracle", key, group, workers=1)
            plans = self.sweep.dirs("oracle")[1]
            for point, outcome in zip(group, outcomes):
                if self.checker.check_outcome(point, outcome, plans):
                    want = measured[point.label]
                    errors.append(abs(outcome.result.total_time - want)
                                  / want)
        # fsum: the mean must not depend on the seeded session order.
        return 100.0 * math.fsum(errors) / len(errors) if errors else None

    def metrics(self) -> tuple:
        """The end-to-end metrics but ``setup_s``, and the report's
        extras (tail percentiles, sample counts, wall-time medians, host
        speed, hit ratio)."""
        out = {
            "point_s_p50": stats.median(self.point_s),
            "session_s_p50": stats.median(self.session_s),
            "points_per_s": self.resolved / sum(self.session_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        extra = {}
        extra.update(stats.timing_summary("point_s", self.point_s))
        extra.update(stats.timing_summary("session_s", self.session_s))
        extra["point_wall_s_p50"] = stats.median(self.point_wall)
        extra["session_wall_s_p50"] = stats.median(self.session_wall)
        extra["setup_wall_s"] = self.setup_wall_s
        extra["host_speed_p50"] = stats.median(self.speeds)
        extra["points_resolved"] = self.resolved
        extra["passes"] = self.passes
        if self.sweep is not None:
            extra["result_hit_ratio"] = self.hits / self.resolved
        return out, extra


def report(loop: Loop, **fields) -> None:
    checker = loop.checker
    fields.update(
        attempted=checker.attempted, failed=checker.failed,
        failed_ratio=checker.failed / max(1, checker.attempted),
        golden_checked=checker.golden_checked,
        problems=checker.problems[:20], seed=loop.args.seed,
        workload=loop.workload,
    )
    print(json.dumps(fields))


def role_setup(args) -> None:
    loop = Loop(args)
    setup_s = loop.first_result(args.spawned)
    report(loop, setup_s=setup_s)


def role_measure(args) -> None:
    loop = Loop(args)
    setup_s = loop.first_result(args.spawned)
    measured = None
    if loop.sweep is not None:
        measured = wl.oracle_measurements(wl.native_points(args.seed))
    # The timed loop runs in slices; between them the parent times a
    # fresh interpreter's set-up while this process waits, so one run's
    # samples cover a longer stretch of the host's speed drift.
    for index in range(args.pauses + 1):
        if index:
            print("PAUSE", flush=True)
            sys.stdin.readline()
        loop.timed(args.seconds * (index + 1) / (args.pauses + 1),
                   min_passes=MIN_PASSES)
    metrics, extra = loop.metrics()
    if measured is not None:
        error_pct = loop.oracle_error_pct(measured)
        extra["oracle_error_pct"] = error_pct
        loop.checker.check_value("oracle_error_pct", error_pct)
    report(loop, setup_s=setup_s, metrics=metrics, extra=extra)


def role_trace(args) -> None:
    loop = Loop(args)
    loop.first_result(args.spawned)
    ledger = layers.traced_run(loop, args)
    report(loop, layers=ledger)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--pauses", type=int, default=0,
                        help="measure: stop this many times for a line "
                             "on stdin")
    args = parser.parse_args(argv)
    if args.spawned is None:
        args.spawned = time.time()
    {"setup": role_setup, "measure": role_measure,
     "trace": role_trace}[args.role](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
