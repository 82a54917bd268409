"""Collective-heavy network load scenarios for the flow-model benchmarks.

Shared by the Figure-14 benchmark and ``bench_to_json.py``.  Each
scenario builds an engine + flow network + task graph, runs it, and
reports the counters the allocator is measured by: engine event
cancellations (heap churn), delivery reschedules, reallocations, and
wall time.

Two shapes are provided:

* ``hierarchical_buckets`` — DDP-style gradient-bucket all-reduces inside
  every node of a multi-node cluster, staggered per node (nodes finish
  backward at slightly different times).  Traffic is node-local and
  mutually disjoint, so scoped reallocation never touches the other
  nodes and no delivery is ever cancelled.
* ``flat_ring_storm`` — overlapping whole-cluster ring all-reduces over
  the same fabric.  Traffic is globally coupled (contention components
  of 2–7 flows at full scale), so scoping cannot help: a rate change
  inside a component reschedules its in-flight deliveries.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.collectives.ring import ring_all_reduce
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.topology import gpu_names, multi_node, node_groups

GPUS_PER_NODE = 8
INTRA_BW = 300e9
INTER_BW = 50e9

#: Per-node stagger between backward passes; picked off any round multiple
#: of the bucket gate spacing so node waves do not re-synchronize.
NODE_STAGGER = 3.7e-5
BUCKET_GAP = 2e-4


def _finish(engine: Engine, network: FlowNetwork,
            sim: TaskGraphSimulator, num_gpus: int) -> Dict:
    start = time.perf_counter()
    total = sim.run()
    wall = time.perf_counter() - start
    events = engine.dispatched_events
    return {
        "num_gpus": num_gpus,
        "simulated_time_s": total,
        "wall_time_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else float("inf"),
        "cancellations": engine.total_cancelled,
        "compactions": engine.compactions,
        "reallocations": network.reallocations,
        "reschedules": network.reschedules,
        "fastpath_hits": network.fastpath_hits,
        "allocator_warnings": network.allocator_warnings,
    }


def hierarchical_buckets(num_gpus: int = 128, buckets: int = 4,
                         nbytes: float = 32e6) -> Dict:
    """Staggered node-local gradient-bucket all-reduces on a cluster."""
    if num_gpus % GPUS_PER_NODE:
        raise ValueError(f"num_gpus must be a multiple of {GPUS_PER_NODE}")
    num_nodes = num_gpus // GPUS_PER_NODE
    engine = Engine()
    topology = multi_node(num_nodes, GPUS_PER_NODE,
                          intra_bandwidth=INTRA_BW, inter_bandwidth=INTER_BW)
    network = FlowNetwork(engine, topology)
    sim = TaskGraphSimulator(engine, network)
    for node, group in enumerate(node_groups(num_nodes, GPUS_PER_NODE)):
        for bucket in range(buckets):
            gate = sim.add_compute(
                f"n{node}.gate{bucket}", group[0],
                duration=bucket * BUCKET_GAP + node * NODE_STAGGER,
            )
            ring_all_reduce(sim, group, nbytes, deps=[gate],
                            tag=f"n{node}.b{bucket}")
    return _finish(engine, network, sim, num_gpus)


def flat_ring_storm(num_gpus: int = 64, buckets: int = 6,
                    nbytes: float = 64e6) -> Dict:
    """Overlapping whole-cluster ring all-reduces (one contention
    component: the adversarial case for scoped reallocation)."""
    if num_gpus % GPUS_PER_NODE:
        raise ValueError(f"num_gpus must be a multiple of {GPUS_PER_NODE}")
    engine = Engine()
    topology = multi_node(num_gpus // GPUS_PER_NODE, GPUS_PER_NODE,
                          intra_bandwidth=INTRA_BW, inter_bandwidth=INTER_BW)
    network = FlowNetwork(engine, topology)
    sim = TaskGraphSimulator(engine, network)
    gpus = gpu_names(num_gpus)
    for bucket in range(buckets):
        gate = sim.add_compute(f"gate{bucket}", gpus[bucket % num_gpus],
                               duration=bucket * BUCKET_GAP)
        ring_all_reduce(sim, gpus, nbytes, deps=[gate], tag=f"b{bucket}")
    return _finish(engine, network, sim, num_gpus)


SCENARIOS = {
    "hierarchical_buckets": hierarchical_buckets,
    "flat_ring_storm": flat_ring_storm,
}

