"""The three benchmark workloads and their seeded input generators.

Every workload is a closed loop with one client: the next point (or
sweep session) starts only after the previous one returned, the way a
caller of ``TrioSim(...).run()`` or ``SweepRunner.run()`` waits for each
result.  A run repeats one seeded *pass* (a fixed list of points or
sessions), so every call of the pass is timed several times on the same
inputs.  ``--seed`` picks each point's variation (straggler, routing
seed, bandwidth, slow GPU, session order) but never its size, and the
simulator only ever sees the generated configs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    HardwareOracle,
    SimulationConfig,
    SweepRunner,
    Tracer,
    TrioSim,
    get_gpu,
    get_model,
)
from repro.faults.spec import FaultSpec, Straggler
from repro.gpus.specs import platform_p1, platform_p2

#: The seed whose outputs ``golden.json`` records.
DEFAULT_SEED = 0

#: Achieved NVLink-class link bandwidth the two single-config workloads
#: scale their seeded multipliers from (bytes/s).
BASE_BANDWIDTH = 234e9


def _rng(*parts) -> random.Random:
    """A generator seeded from *parts*, stable across processes."""
    return random.Random(":".join(str(p) for p in parts))


@dataclass
class Point:
    """One simulation request: a label unique within the workload's
    pool, the trace it runs on, and the generated config."""

    label: str
    trace_key: str
    config: SimulationConfig
    native: bool = False
    #: ``(platform, parallelism, chunks)`` for the hardware oracle.
    oracle: Optional[Tuple[str, str, int]] = None


# ----------------------------------------------------------------------
# fabric_exact: the exact path on a 64-GPU leaf-spine fabric
# ----------------------------------------------------------------------
#: Points in one pass of the single-config workloads.
FABRIC_POOL = 6
FABRIC_GPUS = 64


def fabric_point(seed: int, index: int) -> Point:
    rng = _rng("fabric_exact", seed, index)
    straggler = Straggler(
        gpu=f"gpu{rng.randrange(FABRIC_GPUS)}",
        start=rng.uniform(0.0, 0.04),
        duration=rng.uniform(0.01, 0.05),
        factor=rng.uniform(1.2, 2.0),
    )
    config = SimulationConfig(
        parallelism="ddp", num_gpus=FABRIC_GPUS, topology="leaf_spine",
        routing="adaptive", routing_seed=rng.randrange(2 ** 31),
        link_bandwidth=BASE_BANDWIDTH * rng.uniform(0.8, 1.25),
        faults=FaultSpec(stragglers=(straggler,)),
    )
    return Point(f"fabric/{index}", "resnet50@128/A100", config)


# ----------------------------------------------------------------------
# pipeline_timeline: folded GPipe with the timeline recorded
# ----------------------------------------------------------------------
PIPELINE_POOL = 6
PIPELINE_GPUS = 8


def pipeline_point(seed: int, index: int) -> Point:
    rng = _rng("pipeline_timeline", seed, index)
    slow = f"gpu{rng.randrange(PIPELINE_GPUS)}"
    config = SimulationConfig(
        parallelism="pp", num_gpus=PIPELINE_GPUS, topology="ring",
        chunks=16, iterations=32,
        link_bandwidth=BASE_BANDWIDTH * rng.uniform(0.8, 1.25),
        gpu_slowdowns={slow: rng.uniform(1.0, 1.3)},
    )
    return Point(f"pipeline/{index}", "gpt2@32/A100", config)


# ----------------------------------------------------------------------
# paper_sweep: the Fig 7-10 quick models as successive sweep sessions
# ----------------------------------------------------------------------
SWEEP_MODELS = ("resnet50", "densenet121", "vgg16", "gpt2")
SWEEP_BATCH = 128
#: (parallelism, GPUs, chunks) per platform, after Figs 7-10.
SWEEP_VARIANTS = {
    "P1": (("dp", 2, 1), ("ddp", 2, 1), ("tp", 2, 1)),
    "P2": (("ddp", 4, 1), ("tp", 4, 1),
           ("pp", 2, 1), ("pp", 2, 2), ("pp", 2, 4),
           ("pp", 4, 1), ("pp", 4, 2), ("pp", 4, 4)),
}
SWEEP_PLATFORM_GPU = {"P1": "A40", "P2": "A100"}
#: Seeded link-bandwidth multipliers per point, besides the native 1.0.
SWEEP_BANDWIDTHS = 2
SESSION_POINTS = 8
SESSION_STRIDE = SESSION_POINTS // 2
ORACLE_RUNS = 3


def _platform(name: str, num_gpus: int):
    return platform_p1() if name == "P1" else platform_p2(num_gpus)


def sweep_bandwidths(seed: int) -> List[float]:
    rng = _rng("paper_sweep/bandwidth", seed)
    return [1.0] + [round(2.0 ** rng.uniform(-2.0, 2.0), 6)
                    for _ in range(SWEEP_BANDWIDTHS)]


def sweep_groups(seed: int) -> Dict[str, List[Point]]:
    """Trace key -> the group's points in session order.

    Variants keep a fixed order and the seed orders each variant's
    bandwidth points, so every seed's sessions hold the same variants
    (the same size of work) with different inputs and overlaps.
    """
    multipliers = sweep_bandwidths(seed)
    groups: Dict[str, List[Point]] = {}
    for platform_name, variants in SWEEP_VARIANTS.items():
        gpu = SWEEP_PLATFORM_GPU[platform_name]
        for model in SWEEP_MODELS:
            trace_key = f"{model}@{SWEEP_BATCH}/{gpu}"
            order = _rng("paper_sweep/order", seed, trace_key)
            points = []
            for parallelism, gpus, chunks in variants:
                platform = _platform(platform_name, gpus)
                block = []
                for k, mult in enumerate(multipliers):
                    config = SimulationConfig.for_platform(
                        platform, num_gpus=gpus, parallelism=parallelism,
                        chunks=chunks,
                        link_bandwidth=platform.link_bandwidth * mult,
                    )
                    label = (f"{model}/{platform_name}/{parallelism}"
                             f"-{gpus}g-c{chunks}/bw{k}")
                    block.append(Point(
                        label, trace_key, config, native=(k == 0),
                        oracle=(platform_name, parallelism, chunks)))
                order.shuffle(block)
                points.extend(block)
            groups[trace_key] = points
    return groups


def sweep_pass(seed: int) -> List[Tuple[str, str, List[Point]]]:
    """One pass of the sweep: ``(cache group, trace key, points)`` per
    session.

    Each trace group steps through all its points in sessions of
    :data:`SESSION_POINTS`, and groups take turns, one session each.
    Within a group, consecutive sessions overlap by half, so each after
    the first reads the previous session's results from the group's
    cache and writes new ones.  A pass resolves every point of the grid
    and always starts on empty caches, so every pass, on every seed,
    does the same work.
    """
    groups = sweep_groups(seed)
    sessions = []
    turn = 0
    while True:
        start = turn * SESSION_STRIDE
        added = [(f"g{index}", key, points[start:start + SESSION_POINTS])
                 for index, (key, points) in enumerate(groups.items())
                 if start == 0 or start + SESSION_STRIDE < len(points)]
        if not added:
            return sessions
        sessions.extend(added)
        turn += 1


def native_points(seed: int) -> List[Point]:
    return [p for points in sweep_groups(seed).values()
            for p in points if p.native]


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def trace_keys(workload: str) -> List[str]:
    if workload == "fabric_exact":
        return ["resnet50@128/A100"]
    if workload == "pipeline_timeline":
        return ["gpt2@32/A100"]
    return [f"{model}@{SWEEP_BATCH}/{SWEEP_PLATFORM_GPU[p]}"
            for p in SWEEP_VARIANTS for model in SWEEP_MODELS]


def collect_traces(workload: str) -> Dict[str, object]:
    """Trace every model the workload needs, as ``repro trace`` would."""
    traces = {}
    for key in trace_keys(workload):
        model, _, rest = key.partition("@")
        batch, _, gpu = rest.partition("/")
        traces[key] = Tracer(get_gpu(gpu)).trace(get_model(model), int(batch))
    return traces


def point_pass(workload: str, seed: int) -> List[Point]:
    """One pass of a single-config workload: its seeded pool of points."""
    make, pool = ((fabric_point, FABRIC_POOL) if workload == "fabric_exact"
                  else (pipeline_point, PIPELINE_POOL))
    return [make(seed, index) for index in range(pool)]


def run_point(traces, point: Point):
    """One user call: construct the simulator and run it."""
    record = point.config.iterations > 1  # the pipeline workload's timeline
    return TrioSim(traces[point.trace_key], point.config,
                   record_timeline=record).run()


def sweep_workers() -> int:
    return min(2, os.cpu_count() or 1)


@dataclass
class SweepState:
    """Cache directories per cache tag, and one runner per session."""

    root: Path
    workers: int = field(default_factory=sweep_workers)

    def dirs(self, tag: str) -> Tuple[Path, Path]:
        base = self.root / tag
        return base / "results", base / "plans"

    def runner(self, tag: str, workers: Optional[int] = None):
        results, plans = self.dirs(tag)
        return SweepRunner(max_workers=workers or self.workers,
                           cache=results, plan_cache=plans)


def run_session(traces, state: SweepState, tag: str, trace_key: str,
                points: List[Point], workers: Optional[int] = None):
    """One user call: a fresh ``SweepRunner`` over one session's points."""
    runner = state.runner(tag, workers)
    outcomes = runner.run(traces[trace_key], [p.config for p in points],
                          labels=[p.label for p in points])
    return runner, outcomes


def oracle_measurements(points: List[Point]) -> Dict[str, float]:
    """Measured iteration time per native point, from the oracle."""
    oracles: Dict[Tuple[str, int], HardwareOracle] = {}
    measured = {}
    for point in points:
        platform_name, parallelism, chunks = point.oracle
        gpus = point.config.num_gpus
        oracle = oracles.get((platform_name, gpus))
        if oracle is None:
            oracle = HardwareOracle(_platform(platform_name, gpus))
            oracles[(platform_name, gpus)] = oracle
        model = get_model(point.label.split("/")[0])
        if parallelism == "dp":
            m = oracle.measure_data_parallel(model, SWEEP_BATCH,
                                             runs=ORACLE_RUNS)
        elif parallelism == "ddp":
            m = oracle.measure_ddp(model, SWEEP_BATCH, runs=ORACLE_RUNS)
        elif parallelism == "tp":
            m = oracle.measure_tensor_parallel(model, SWEEP_BATCH,
                                               runs=ORACLE_RUNS)
        else:
            m = oracle.measure_pipeline(model, SWEEP_BATCH, chunks,
                                        num_stages=gpus, runs=ORACLE_RUNS)
        measured[point.label] = m.total
    return measured
