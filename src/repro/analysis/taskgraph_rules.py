"""Static lint rules over extrapolated task graphs (``TG``-series).

The trace extrapolators emit a DAG of compute/transfer/barrier tasks; a
cross-GPU dependency cycle (e.g. from mis-ordered collective phases in a
custom extrapolator) deadlocks the simulation with a cryptic "tasks never
became ready" error after the engine has already drained.  These rules
run *before any event is scheduled* — strongly-connected-component
analysis over the dependency edges, endpoint checks against the network
topology, and dependency-count consistency — so ``--sanitize`` rejects a
broken graph up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import networkx as nx

from repro.analysis.registry import Emitter, rule
from repro.core.taskgraph import TaskGraphSimulator


@dataclass
class TaskGraphContext:
    """The simulator under analysis plus the topology it will run on."""

    sim: TaskGraphSimulator
    topology: Optional[nx.Graph] = None

    @cached_property
    def view(self):
        """The simulator's columnar graph as a
        :class:`~repro.analysis.verifier.graph.GraphView`, lowered once
        and shared by every rule (the same lowering the DV rules use)."""
        # Deferred import: the verifier package reaches back into the
        # linter, which imports this module.
        from repro.analysis.verifier.graph import GraphView

        return GraphView.from_simulator(self.sim)


@rule("TG001", "taskgraph-cycle", "taskgraph", "error",
      description="The task dependency graph must be acyclic; a cycle "
                  "(e.g. mis-ordered collectives) deadlocks the run.")
def check_cycles(ctx: TaskGraphContext, emit: Emitter) -> None:
    # GraphView's Kahn fast path keeps the clean (acyclic) case near-free
    # — this runs before every sanitized simulation — and only builds the
    # SCC machinery once a cycle exists (shared with the DV002 deep rule).
    view = ctx.view
    for members in view.cycles(limit=3):
        names = [view.names[m] for m in members[:5]]
        emit(f"dependency cycle through {len(members)} task(s): "
             f"{', '.join(names)}"
             + (" ..." if len(members) > 5 else ""),
             location=f"task[{view.ids[members[0]]}]", size=len(members))


@rule("TG002", "taskgraph-endpoint", "taskgraph", "error",
      description="Transfer tasks must name endpoints that exist in the "
                  "network topology.")
def check_endpoints(ctx: TaskGraphContext, emit: Emitter) -> None:
    if ctx.topology is None:
        return
    view = ctx.view
    count = 0
    for index in range(view.n):
        if view.kinds[index] != "transfer":
            continue
        for endpoint in (view.srcs[index], view.dsts[index]):
            if endpoint not in ctx.topology:
                if count < 5:
                    emit(f"transfer {view.names[index]!r} endpoint "
                         f"{endpoint!r} is not a topology node",
                         location=f"task[{view.ids[index]}]",
                         endpoint=str(endpoint))
                count += 1


@rule("TG003", "taskgraph-dep-mismatch", "taskgraph", "error",
      description="Each task's remaining-dependency counter must equal "
                  "its in-degree; a mismatch strands the task forever.")
def check_dep_counts(ctx: TaskGraphContext, emit: Emitter) -> None:
    view = ctx.view
    done = view.done
    count = 0
    for index in range(view.n):
        if done[index]:
            continue
        actual = sum(1 for dep in view.deps[index] if not done[dep])
        declared = view.declared[index]
        if declared != actual:
            if count < 5:
                emit(f"task {view.names[index]!r} counts {declared} "
                     f"pending deps but {actual} tasks point at it",
                     location=f"task[{view.ids[index]}]",
                     counted=declared, actual=actual)
            count += 1
