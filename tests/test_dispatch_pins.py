"""Pinned dispatch streams and a schedule certificate for the exact path.

Every exact run — plain, ``--sanitize``, ``--verify``, folded warm-up —
executes on the columnar task scheduler.  The verifier's dispatch-order
digest folds every dispatched ``(time, seq)`` pair, so pinning it (with
``total_time`` and the event count) over a small matrix freezes the
dispatch stream itself: DDP and GPipe, a ring and an adaptive-routed
leaf-spine fabric, clean and with a seeded straggler, plus one
multi-iteration run.

The certificate checks the finished schedule directly from the
simulator's columns instead of comparing two implementations: every
task starts at or after the latest end of its dependencies, compute
tasks never overlap on one GPU, every transferred byte is delivered,
and iteration times sum to the total.
"""

import math
from collections import defaultdict

import pytest

from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.core import simulator as simulator_mod
from repro.core.taskgraph import SOA_COMPUTE, SOA_TRANSFER, TaskGraphSimulator
from repro.faults import FaultSpec
from repro.network.topology import TopologySpec

STRAGGLER = {"schema_version": 1, "seed": 0,
             "stragglers": [{"gpu": "gpu1", "start": 0.0, "duration": 1.0,
                             "factor": 1.5}]}
FABRIC = {"topology": TopologySpec("leaf_spine",
                                   {"gpus_per_leaf": 2, "spines": 2}),
          "routing": "adaptive"}
RING = {"topology": "ring"}

#: name -> (config kwargs, verify digest, total_time, events)
PINNED = {
    "ddp-ring-clean": (
        dict(parallelism="ddp", **RING), 0x6f21497cac03195d,
        0.005084223157802768, 839),
    "ddp-ring-straggler": (
        dict(parallelism="ddp", faults=STRAGGLER, **RING),
        0xefffae8a6fccb9f5, 0.007144720016704143, 839),
    "ddp-fabric-clean": (
        dict(parallelism="ddp", **FABRIC), 0x4ca3f2d41c4be3ed,
        0.005108223157802767, 863),
    "ddp-fabric-straggler": (
        dict(parallelism="ddp", faults=STRAGGLER, **FABRIC),
        0xc0caf64f43364f12, 0.007168720016704141, 863),
    "pp-ring-clean": (
        dict(parallelism="pp", chunks=4, **RING), 0x371ff39c6a289117,
        0.0032722364381090256, 667),
    "pp-ring-straggler": (
        dict(parallelism="pp", chunks=4, faults=STRAGGLER, **RING),
        0x64a6f29a4546d130, 0.0037233716876437363, 667),
    "pp-fabric-clean": (
        dict(parallelism="pp", chunks=4, **FABRIC), 0xfebfc32a95c465b4,
        0.003280236438109026, 667),
    "pp-fabric-straggler": (
        dict(parallelism="pp", chunks=4, faults=STRAGGLER, **FABRIC),
        0x059e07f044ea5c6d, 0.0037313716876437356, 667),
    "ddp-ring-clean-3iter": (
        dict(parallelism="ddp", iterations=3, **RING), 0xbb94ba9fd946c17d,
        0.015252669473408281, 2519),
}


@pytest.fixture(scope="module")
def runs():
    """Each pinned case run once with ``verify=True``, keeping the task
    graph simulator so the certificate can read its columns."""
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"),
                                          batch_size=16)
    built = []

    class Recording(TaskGraphSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_mod, "TaskGraphSimulator", Recording)
        for name, (kwargs, _, _, _) in PINNED.items():
            kwargs = dict(kwargs, num_gpus=4)
            if "faults" in kwargs:
                kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
            sim = TrioSim(trace, SimulationConfig(**kwargs), verify=True)
            result = sim.run()
            assert sim.verify_report.ok, [str(f) for f in sim.verify_report]
            out[name] = (sim, result, built.pop())
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dispatch_stream_is_pinned(runs, name):
    sim, result, _ = runs[name]
    _, digest, total, events = PINNED[name]
    assert sim.verify_digest == digest
    assert result.total_time == total
    assert result.events == events


@pytest.mark.parametrize("name", sorted(PINNED))
def test_schedule_certificate(runs, name):
    _, result, tg = runs[name]
    graph = tg.columns
    start, end = graph.start, graph.end
    assert graph.size and all(e is not None for e in end)
    # Dependency order, over CSR dependents, fence links and releases.
    for row in range(graph.size):
        for successor in graph.successors(row):
            assert start[successor] >= end[row], (
                graph.name[row], graph.name[successor])
    # GPU serialisation: one compute task at a time per device.
    per_gpu = defaultdict(list)
    for row in range(graph.size):
        if graph.kind[row] == SOA_COMPUTE:
            per_gpu[graph.gpu[row]].append((start[row], end[row]))
    for spans in per_gpu.values():
        spans.sort()
        for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
            assert first_end <= second_start
    # Byte conservation: every transferred byte is delivered.
    sent = math.fsum(graph.nbytes[row] for row in range(graph.size)
                     if graph.kind[row] == SOA_TRANSFER)
    assert sent > 0
    assert math.isclose(sent, result.network["bytes_delivered"],
                        rel_tol=1e-12)
    assert max(end) == result.total_time
    if result.iteration_times:
        assert len(result.iteration_times) == 3
        assert math.isclose(sum(result.iteration_times), result.total_time,
                            rel_tol=1e-12)
