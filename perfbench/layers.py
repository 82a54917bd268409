"""The traced run: spans around each layer's public entry points, plus a
deterministic profiler inside the engine loop, folded into a ledger.

Spans come from wrappers this file installs around public functions of
``repro`` (nothing in ``src/`` changes).  Each span records its name,
start, end and the span that was open when it began.  Layers that do
their work inside engine callbacks -- the engine itself, the task graph,
the network, faults and the timeline recorder -- have no call boundary
of their own, so ``cProfile`` runs inside every
``TaskGraphSimulator.run`` span and their self time is the profiled self
time of their modules.  Time in code outside ``repro`` (builtins,
numpy, the standard library) goes to the ``repro`` module that called it.

The ledger splits the traced wall time (the sum of the root spans: one
per point, or per sweep session) into layer self times plus an
unattributed remainder: root self time, and the part of each profiled
region the profiler did not attribute.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import stats
import workloads as wl
from names import LEDGER_LAYERS, PER_LAYER

#: Span name -> ledger layer, for spans outside the profiled regions.
SPAN_LAYER = {
    "perfmodel": "perfmodel",
    "extrapolator": "extrapolator",
    "plan": "plan",
    "network.topology": "network.topology",
    "network": "network",
    "results": "results",
    "analysis": "analysis",
    "service.plan_cache": "service",
    "service.transport": "service",
    "service.cache_load": "service.cache",
    "service.cache_store": "service.cache",
}

#: The span inside which the profiler runs.
PROFILED = "taskgraph"
ROOTS = ("point", "session")

#: Results serialized per phase to price ``results.serialize_s``.
SERIALIZE_SAMPLES = 3


def module_layer(filename: str) -> Optional[str]:
    """The ledger layer of a profiled function's source file."""
    path = filename.replace("\\", "/")
    if "/perfbench/" in path:
        return "tracing"
    if "/repro/" not in path:
        return None
    rel = path.rsplit("/repro/", 1)[1]
    if rel.startswith("engine/"):
        return "engine"
    if rel == "core/taskgraph.py":
        return "taskgraph"
    if rel == "network/routing.py":
        return "network.routing"
    if rel == "network/topology.py":
        return "network.topology"
    if rel.startswith("network/"):
        return "network"
    if rel.startswith("faults/"):
        return "faults"
    if rel in ("core/results.py", "core/timeline.py"):
        return "results"
    if rel == "core/plan.py":
        return "plan"
    if rel.startswith("analysis/"):
        return "analysis"
    return "core"


def attribute(raw_stats: dict) -> Dict[str, float]:
    """Profiled self time per layer; code outside ``repro`` is charged to
    its callers in proportion to the time each call site spent in it."""
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = module_layer(func[0])
        if layer is not None:
            owners[func] = {layer: 1.0}
            return owners[func]
        owners[func] = {}  # cycle guard: recursion charges nobody
        callers = raw_stats[func][4]
        total = sum(v[2] for v in callers.values())
        share: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, v in callers.items():
                if caller not in raw_stats:
                    continue
                for name, frac in owner(caller).items():
                    share[name] += frac * v[2] / total
        owners[func] = dict(share)
        return owners[func]

    out: Dict[str, float] = defaultdict(float)
    for func, entry in raw_stats.items():
        for name, frac in owner(func).items():
            out[name] += entry[2] * frac
    return dict(out)


class SpanTracer:
    """In-memory spans and counters, written out when the run ends."""

    def __init__(self):
        self.spans: List[list] = []   # [id, parent, name, start, end, inside]
        self.stack: List[int] = []
        self.profiler = cProfile.Profile()
        self.profiling = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, list] = defaultdict(list)
        self.roots_out: List[object] = []
        self._undo: List[tuple] = []
        #: Pool workers forked inside a session inherit the wrappers;
        #: only this process records.
        self.pid = os.getpid()

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> Optional[int]:
        if not self.stack and name not in ROOTS:
            return None  # outside any point or session: not traced
        if os.getpid() != self.pid:
            return None
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None,
                           self.profiling > 0])
        self.stack.append(sid)
        return sid

    def end(self, sid: Optional[int]) -> None:
        if sid is None:
            return
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    @property
    def active(self) -> bool:
        return bool(self.stack)

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span around every call of ``owner.attr``; *count* is
        ``(args, kwargs, result) -> None`` bookkeeping after the call."""
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        tracer = self
        profiled = name == PROFILED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            if sid is not None and profiled:
                tracer.profiling += 1
                tracer.profiler.enable()
            try:
                result = fn(*args, **kwargs)
            finally:
                if sid is not None and profiled:
                    tracer.profiler.disable()
                    tracer.profiling -= 1
                tracer.end(sid)
            if sid is not None and count is not None:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._undo.append((owner, attr, raw))

    def remember(self, owner, kind: str) -> None:
        """Keep every instance of *owner* built inside a root span."""
        original = owner.__init__
        tracer = self

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if tracer.active:
                tracer.instances[kind].append(obj)

        owner.__init__ = init
        self._undo.append((owner, "__init__", original))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def install(self) -> "SpanTracer":
        from repro.core import plan as core_plan
        from repro.core import simulator
        from repro.core.taskgraph import TaskGraphSimulator
        from repro.engine.engine import Engine
        from repro.network.flow import FlowNetwork
        from repro.service import cache, runner, transport

        def plan_built(_a, _k, plan):
            self.count("plan_tasks", len(plan))

        def instanced(args, kwargs, _created):
            plan = args[0]
            copies = kwargs.get("count", args[2] if len(args) > 2 else 1)
            self.count("tasks_instanced", len(plan) * copies)

        def packed(_a, _k, blob):
            self.count("transport_bytes", len(blob))

        self.wrap(wl, "run_point", "point",
                  count=lambda _a, _k, r: self.roots_out.append(r))
        self.wrap(wl, "run_session", "session",
                  count=lambda _a, _k, r: self.roots_out.append(r))
        self.wrap(simulator.TrioSim, "__init__", "perfmodel")
        self.wrap(simulator.TrioSim, "build_plan", "extrapolator",
                  count=plan_built)
        for attr in ("instantiate", "instantiate_iterations",
                     "instantiate_iterations_soa"):
            self.wrap(core_plan.ExtrapolationPlan, attr, "plan",
                      count=instanced)
        self.wrap(TaskGraphSimulator, "run", PROFILED)
        self.wrap(FlowNetwork, "send", "network",
                  count=lambda *_: self.count("flows"))
        self.wrap(FlowNetwork, "route", "network")
        self.wrap(FlowNetwork, "candidate_routes", "network")
        self.wrap(FlowNetwork, "extend_stats", "network")
        self.wrap(simulator, "build_topology_cached", "network.topology")
        self.wrap(simulator, "shift_records", "results")
        self.wrap(runner, "lint_config", "analysis",
                  count=lambda *_: self.count("lints"))
        self.wrap(cache.ResultCache, "load", "service.cache_load")
        self.wrap(cache.ResultCache, "store", "service.cache_store")
        self.wrap(core_plan.PlanCache, "get_or_build", "service.plan_cache")
        for attr in ("pack", "pack_traces"):
            self.wrap(transport, attr, "service.transport", count=packed)
        for attr in ("unpack", "unpack_traces"):
            self.wrap(transport, attr, "service.transport")
        self.remember(Engine, "engine")
        self.remember(FlowNetwork, "network")
        self.remember(simulator.TrioSim, "sim")
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def reset(self) -> List[list]:
        """Start a new phase; returns the finished phase's spans."""
        spans, self.spans = self.spans, []
        self.counts.clear()
        self.instances.clear()
        self.roots_out = []
        self.profiler = cProfile.Profile()
        return spans

    def harvest(self) -> None:
        """Read the counters of the instances built since the last call,
        then drop them."""
        for engine in self.instances.pop("engine", []):
            self.count("events", engine.dispatched_events)
            self.count("cancelled", engine.total_cancelled)
            self.count("compactions", engine.compactions)
        for net in self.instances.pop("network", []):
            self.count("reallocations", net.reallocations)
            self.count("reschedules", net.reschedules)
            self.count("fastpath_hits", net.fastpath_hits)
        for sim in self.instances.pop("sim", []):
            fault_stats = sim.fault_stats or {}
            self.count("injections", fault_stats.get("straggled_tasks", 0)
                       + fault_stats.get("link_transitions", 0)
                       + fault_stats.get("failures_recovered", 0))
        results = []
        for item in self.roots_out:
            if isinstance(item, tuple):  # run_session: (runner, outcomes)
                results.extend(o.result for o in item[1]
                               if o.result is not None and not o.cached)
            else:
                results.append(item)
        self.roots_out = []
        for result in results:
            phases = result.profile.get("phases", {})
            counters = result.profile.get("counters", {})
            self.count("fold_extend_s", phases.get("fold_extend", 0.0))
            self.count("iterations_folded",
                       counters.get("iterations_folded", 0))
            self.count("timeline_records", len(result.timeline))
            if self.counts["results"] < SERIALIZE_SAMPLES:
                # What saving the result costs (``--save-result``).
                started = time.perf_counter()
                text = result.to_json()
                self.count("serialize_s", time.perf_counter() - started)
                self.count("result_bytes", len(text))
                self.count("results")


def ledger(spans: List[list], profiled: Dict[str, float]) -> Dict[str, float]:
    """Totals per ledger layer over a phase.  The layers and
    ``unattributed`` sum to ``wall``, the root spans' total."""
    outside = [tuple(s[:5]) for s in spans if not s[5]]
    selfs = stats.self_times(outside)
    out = {layer: 0.0 for layer in LEDGER_LAYERS}
    wall = unattributed = 0.0
    for sid, parent, name, start, end in outside:
        if parent is None:
            wall += end - start
            unattributed += selfs[sid]
        elif name == PROFILED:
            # Split below by the profiled self time of each module.
            unattributed += selfs[sid]
        else:
            out[SPAN_LAYER[name]] += selfs[sid]
    for layer, seconds in profiled.items():
        out[layer] += seconds
        unattributed -= seconds
    out["unattributed"] = unattributed
    out["wall"] = wall
    return out


def span_total(spans, name: str) -> float:
    return sum(s[4] - s[3] for s in spans if s[2] == name)


def span_self(spans, name: str) -> float:
    outside = [tuple(s[:5]) for s in spans if not s[5]]
    selfs = stats.self_times(outside)
    return sum(selfs[s[0]] for s in outside if s[2] == name)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(loop, args) -> Dict[str, float]:
    """The per-layer metrics of *loop*'s workload (see ``names.py``)."""
    sweep = loop.sweep is not None
    seconds = args.seconds
    values = {name: 0.0 for name in PER_LAYER}
    values["trace.collect_s"] = loop.collect_s

    # Untraced baseline, shaped like the timed run.
    loop.restart()
    loop.reset_samples()
    loop.timed(seconds * 0.3)
    untraced_point = stats.median(loop.point_s)
    untraced_session = stats.median(loop.session_s)

    tracer = SpanTracer().install()
    dumps = {}
    try:
        if sweep:
            # Parallel sessions as timed: the parent-side service layer.
            loop.restart()
            loop.reset_samples()
            service_sessions = []
            loop.timed(seconds * 0.3,
                       on_step=lambda wall, outs: service_sessions.append(
                           (wall, outs, loop.last_runner)))
            values.update(service_metrics(tracer, service_sessions,
                                          loop.sweep.workers))
            values["tracing.overhead_ratio"] = ratio(
                stats.median(loop.session_s), untraced_session)
            dumps["parallel"] = tracer.reset()
        # In-process points or sessions: every layer, profiled.
        loop.restart()
        loop.reset_samples()
        loop.timed(seconds * (0.4 if sweep else 0.7), workers=1,
                   on_step=lambda *_: tracer.harvest())
        if not sweep:
            values["tracing.overhead_ratio"] = ratio(
                stats.median(loop.point_s), untraced_point)
        spans = tracer.spans
        raw = pstats.Stats(tracer.profiler).stats
        values.update(layer_metrics(tracer, spans, attribute(raw)))
        dumps["inprocess"] = tracer.reset()
    finally:
        tracer.uninstall()
    if args.spans:
        Path(args.spans).write_text(json.dumps({
            "workload": loop.workload, "seed": args.seed,
            "fields": ["id", "parent", "name", "start", "end",
                       "inside_profiled"],
            "phases": dumps,
        }))
    return values


def service_metrics(tracer, sessions, workers) -> Dict[str, float]:
    spans = tracer.spans
    n = max(1, len(sessions))
    walls = sum(wall for wall, _outs, _runner in sessions)
    run_s = overhead = 0.0
    points = hits = plan_hits = plan_builds = retries = 0
    for wall, outs, runner in sessions:
        fresh = sum(o.result.wall_time for o in outs
                    if o.result is not None and not o.cached)
        run_s += fresh
        overhead += wall - fresh / workers
        points += len(outs)
        hits += sum(1 for o in outs if o.cached)
        metrics = runner.last_metrics
        plan_hits += metrics.plan_cache_hits
        plan_builds += metrics.plan_builds
        retries += metrics.retries
    return {
        "service.session_overhead_s": overhead / n,
        "service.worker_busy_ratio": ratio(run_s, workers * walls),
        "service.result_hit_ratio": ratio(hits, points),
        "service.plan_hit_ratio": ratio(plan_hits, plan_hits + plan_builds),
        "service.cache_load_s": span_total(spans, "service.cache_load") / n,
        "service.cache_store_s": span_total(spans, "service.cache_store") / n,
        "service.transport_bytes": tracer.counts["transport_bytes"] / n,
        "service.transport_s": span_total(spans, "service.transport") / n,
        "service.retries": retries / n,
    }


def layer_metrics(tracer, spans, profiled) -> Dict[str, float]:
    counts = tracer.counts
    n = max(1, sum(1 for s in spans if s[1] is None))
    totals = ledger(spans, profiled)
    network_self = totals["network"]
    engine_self = totals["engine"]
    plan_self = span_self(spans, "extrapolator")
    flows = counts["flows"]
    hits = counts["fastpath_hits"]
    out = {
        "perfmodel.prepare_s": span_total(spans, "perfmodel") / n,
        "extrapolator.plan_s": span_total(spans, "extrapolator") / n,
        "extrapolator.plan_tasks": counts["plan_tasks"] / n,
        "extrapolator.us_per_task": 1e6 * ratio(plan_self,
                                                counts["plan_tasks"]),
        "plan.instance_s": span_total(spans, "plan") / n,
        "plan.instance_us_per_task": 1e6 * ratio(
            span_total(spans, "plan"), counts["tasks_instanced"]),
        "taskgraph.self_s": totals["taskgraph"] / n,
        "taskgraph.tasks_run": counts["tasks_instanced"] / n,
        "engine.self_s": engine_self / n,
        "engine.events": counts["events"] / n,
        "engine.ns_per_event": 1e9 * ratio(engine_self, counts["events"]),
        "engine.cancelled": counts["cancelled"] / n,
        "engine.compactions": counts["compactions"] / n,
        "network.self_s": network_self / n,
        "network.flows": flows / n,
        "network.us_per_flow": 1e6 * ratio(network_self, flows),
        "network.reallocations": counts["reallocations"] / n,
        "network.reschedules": counts["reschedules"] / n,
        "network.fastpath_ratio": ratio(hits, hits + counts["reschedules"]),
        "network.routing_self_s": totals["network.routing"] / n,
        "network.topology_s": totals["network.topology"] / n,
        "faults.self_s": totals["faults"] / n,
        "faults.injections": counts["injections"] / n,
        "fold.extend_s": counts["fold_extend_s"] / n,
        "fold.iterations_folded": counts["iterations_folded"] / n,
        "results.self_s": totals["results"] / n,
        "results.timeline_records": counts["timeline_records"] / n,
        "results.serialize_s": ratio(counts["serialize_s"],
                                     counts["results"]),
        "results.bytes": ratio(counts["result_bytes"], counts["results"]),
        "analysis.lint_s": ratio(span_total(spans, "analysis"),
                                 counts["lints"]),
        "ledger.wall_s": totals["wall"] / n,
        "ledger.unattributed_s": totals["unattributed"] / n,
    }
    for layer in LEDGER_LAYERS:
        out[f"ledger.{layer}_s"] = totals[layer] / n
    return out
