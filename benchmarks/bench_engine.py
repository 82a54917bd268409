"""Write the exact-path engine benchmark results to ``BENCH_engine.json``.

The exact event-by-event path is what every fold-ineligible run executes
— fault injection, flowlet/adaptive routing, ``--sanitize``/``--verify``,
timeline recording — and what every sweep-service worker spends its time
in.  Every exact run executes on the columnar (SoA) task scheduler.
This benchmark pins it down from two sides:

* **Pinned dispatch** — the faulted and clean 64-GPU scenarios must
  reproduce the committed dispatch digests (the same ``(time, seq)``
  fold the verifier computes), simulated times, and event counts.  They
  were recorded when a per-object reference scheduler still ran beside
  the columnar one and agreed with it bit for bit; a divergence fails
  the benchmark, not just the gate.

* **Throughput** — best-of-N events/sec on the faulted + adaptive-routing
  scenario.  ``speedup_vs_pre_overhaul`` compares against the recorded
  pre-overhaul baseline (see ``pre_overhaul`` in the output).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [-o BENCH_engine.json]
    PYTHONPATH=src python benchmarks/bench_engine.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --profile out.pstats
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.plan import PlanCache
from repro.core.simulator import TrioSim
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.routing import get_routing_strategy
from repro.network.topology import build_topology_cached
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

#: The headline scenario: a 64-GPU DDP run on a leaf-spine fabric with
#: adaptive routing and a straggler fault — every knob that disables
#: iteration folding, so the run is pure exact path.  Quick mode shrinks
#: the model and fabric so CI stays under ~30s.
FULL = dict(model="resnet50", batch=128, num_gpus=64, iterations=2,
            repeats=3)
QUICK = dict(model="resnet18", batch=32, num_gpus=16, iterations=2,
             repeats=2)

#: Straggler spec for the faulted arm (seeded: bit-identical digests).
FAULTS = {
    "schema_version": 1, "seed": 0,
    "stragglers": [{"gpu": "gpu1", "start": 0.001, "duration": 0.05,
                    "factor": 1.5}],
    "link_faults": [], "failures": [], "checkpoint_interval": None,
    "checkpoint_cost": 0.0, "restore_cost": 0.0, "chaos_kill_at": None,
}

#: The pre-overhaul engine's throughput on the FULL faulted scenario,
#: measured at the commit preceding the exact-path overhaul (object
#: dependency walk, per-event dispatch, per-event hook machinery) with
#: this file's exact methodology — warm plan cache, best-of-3 — on the
#: machine that produced the first committed BENCH_engine.json.  Its
#: simulated time equals the overhauled engine's to the bit.  The
#: ``speedup_vs_pre_overhaul`` headline divides by this; it is only
#: meaningful for full (non ``--quick``) runs on comparable hardware —
#: CI gates the pinned dispatch digests instead.
PRE_OVERHAUL_EVENTS_PER_SEC = 64_897

#: ``(dispatch digest, simulated time, events)`` of each arm, keyed by
#: ``quick``.  Recorded while the per-object reference scheduler still
#: cross-checked the columnar one (both produced exactly these values).
PINNED = {
    False: {"faulted": ("28c9f1ca8f4caee0", 0.2053144305068356, 192303),
            "clean": ("cde0e7e7865bc072", 0.18863803921515243, 192303)},
    True: {"faulted": ("1f230fd73109a37c", 0.022191069952813544, 10103),
           "clean": ("9b34ac9e49f24202", 0.015341225055199572, 10103)},
}

_MASK = (1 << 64) - 1


class _Digest:
    """The verifier's dispatch-order fold, fed by an engine observer."""

    def __init__(self) -> None:
        self.value = 0

    def __call__(self, time: float, seq: int, event) -> None:
        self.value = ((self.value * 1000003) ^ hash((time, seq))) & _MASK


def _observed_factory(digest: _Digest, num_gpus: int):
    """A network factory that installs *digest* as dispatch observer.

    The observer has to be attached before any event is scheduled; the
    network factory is the only pre-run seam that sees the engine, so
    the pinned arms build their (standard) network through it.
    """

    def factory(engine, cfg):
        engine.set_dispatch_observer(digest)
        topo = build_topology_cached("leaf_spine", num_gpus,
                                     cfg.link_bandwidth, cfg.link_latency)
        if cfg.faults is not None and not cfg.faults.is_empty:
            # Fault injection mutates link bandwidths; never share the
            # cached topology instance with other arms.
            topo = topo.copy()
        return FlowNetwork(engine, topo,
                           routing=get_routing_strategy(cfg.routing),
                           routing_seed=cfg.routing_seed)

    return factory


def _config(num_gpus: int, iterations: int, faulted: bool,
            factory=None) -> SimulationConfig:
    return SimulationConfig(
        parallelism="ddp", num_gpus=num_gpus, topology="leaf_spine",
        link_bandwidth=234e9, iterations=iterations, routing="adaptive",
        faults=FaultSpec.from_dict(FAULTS) if faulted else None,
        network_factory=factory)


def _digest_arm(trace, cache: PlanCache, num_gpus: int, iterations: int,
                faulted: bool) -> Tuple[str, float, int]:
    digest = _Digest()
    sim = TrioSim(trace, _config(num_gpus, iterations, faulted,
                                 _observed_factory(digest, num_gpus)),
                  record_timeline=False, plan_cache=cache)
    result = sim.run()
    return f"{digest.value:016x}", result.total_time, result.events


def _timed_arm(trace, cache: PlanCache, num_gpus: int, iterations: int,
               repeats: int) -> Tuple[float, int]:
    """Best-of-*repeats* wall seconds for the faulted scenario."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim = TrioSim(trace, _config(num_gpus, iterations, faulted=True),
                      record_timeline=False, plan_cache=cache)
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        if wall < best:
            best = wall
        events = result.events
    return best, events


def run(quick: bool = False,
        profile_out: Optional[str] = None) -> dict:
    params = QUICK if quick else FULL
    trace = Tracer(get_gpu("A100")).trace(get_model(params["model"]),
                                          params["batch"])
    cache = PlanCache()
    num_gpus, iterations = params["num_gpus"], params["iterations"]

    # Pinned dispatch: digests, simulated times, events, faulted and clean.
    dispatch: Dict[str, dict] = {}
    for arm_name, faulted in (("faulted", True), ("clean", False)):
        got = _digest_arm(trace, cache, num_gpus, iterations, faulted)
        want = PINNED[quick][arm_name]
        assert got == want, (
            f"{arm_name}: dispatch diverged from the pinned stream: "
            f"(digest, simulated time, events) {got!r} vs {want!r}")
        dispatch[arm_name] = {
            "dispatch_digest": got[0],
            "simulated_time_s": got[1],
            "events": got[2],
        }

    # Throughput: best-of-N on the faulted scenario.
    wall, events = _timed_arm(trace, cache, num_gpus, iterations,
                              params["repeats"])
    events_per_sec = events / wall

    if profile_out:
        import cProfile

        profiler = cProfile.Profile()
        sim = TrioSim(trace, _config(num_gpus, iterations, faulted=True),
                      record_timeline=False, plan_cache=cache)
        profiler.enable()
        sim.run()
        profiler.disable()
        profiler.dump_stats(profile_out)

    payload = {
        "benchmark": "engine_exact_path",
        "schema_version": 1,
        "quick": quick,
        "python": platform.python_version(),
        "params": dict(model=params["model"], batch=params["batch"],
                       num_gpus=num_gpus, iterations=iterations,
                       topology="leaf_spine", routing="adaptive",
                       link_bandwidth=234e9, repeats=params["repeats"],
                       faults="straggler gpu1 x1.5 (seed 0)"),
        "dispatch": dispatch,
        "timing": {
            "wall_s": wall,
            "events": events,
            "events_per_sec": events_per_sec,
        },
        "headline": {
            "scenario": f"{params['model']}_ddp_faults_adaptive",
            "num_gpus": num_gpus,
            "events": events,
            "events_per_sec": events_per_sec,
            "dispatch_digest": dispatch["faulted"]["dispatch_digest"],
            "clean_dispatch_digest": dispatch["clean"]["dispatch_digest"],
            # Both arms matched their pinned (digest, simulated time,
            # events) triple — asserted above.
            "identical_simulated_time": True,
        },
    }
    if not quick:
        payload["pre_overhaul"] = {
            "events_per_sec": PRE_OVERHAUL_EVENTS_PER_SEC,
            "method": "same scenario, measured at the commit before "
                      "the exact-path engine overhaul (object dependency "
                      "walk, per-event dispatch) on the machine that "
                      "recorded the first BENCH_engine.json; the ratio "
                      "holds only on that machine",
        }
        payload["headline"]["speedup_vs_pre_overhaul"] = (
            events_per_sec / PRE_OVERHAUL_EVENTS_PER_SEC)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_engine.json",
                        help="output path (default: ./BENCH_engine.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small scenario for CI smoke runs")
    parser.add_argument("--profile", default=None, metavar="PSTATS",
                        help="also cProfile one exact-path run and dump "
                             "the stats here (CI uploads this artifact)")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, profile_out=args.profile)
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    head = payload["headline"]
    print(f"wrote {out}")
    line = (f"  {head['scenario']} @ {head['num_gpus']} GPUs: "
            f"{head['events_per_sec']:,.0f} events/s, "
            f"digest {head['dispatch_digest']}")
    if "speedup_vs_pre_overhaul" in head:
        line += (f", {head['speedup_vs_pre_overhaul']:.2f}x vs "
                 f"pre-overhaul engine")
    print(line)
    if args.profile:
        print(f"  cProfile stats -> {args.profile}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
