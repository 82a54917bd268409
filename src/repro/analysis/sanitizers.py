"""Runtime sanitizers (``SZ``-series): invariant checkers wired through
the existing :class:`~repro.engine.hooks.Hookable` mechanism.

Where the static lint passes reject bad *inputs*, sanitizers watch the
simulation *while it runs* for invariants whose violation silently
corrupts results:

* :class:`TimeMonotonicSanitizer` — virtual time must never run backwards
  across dispatched events (hooked on the engine);
* :class:`MaxMinCertificate` — after every bandwidth reallocation the
  active flows' rates must be max-min fair: no directed link
  oversubscribed (SZ002) and every flow crossing a saturated link on
  which no flow has a higher rate (SZ006), over routes made of topology
  edges (hooked on :class:`~repro.network.flow.FlowNetwork`);
* :class:`HeapLeakSanitizer` — after the run loop drains, no live events
  may remain queued and the cancelled-entry accounting must be consistent
  (a post-run check on the engine);
* :class:`AllocatorWarningSanitizer` — the max-min allocator's
  numerical-safety edges (progressive filling stalling without freezing a
  flow) must not pass silently (hooked on
  :data:`~repro.network.flow.HOOK_FLOW_WARNING`);
* :class:`RestartConsistencySanitizer` — after a faulted run, fault
  injection must have left no degraded link, stranded flow, or
  unfinished task (a post-run check on the injector).

:class:`SanitizerSuite` bundles the SZ001–SZ006 rules behind
``--sanitize``: attach before :meth:`Engine.run`, call :meth:`finalize`
after, read ``.report``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, Report
from repro.analysis.registry import DEFAULT_REGISTRY, Rule, RuleRegistry
from repro.engine.engine import Engine
from repro.engine.hooks import HookCtx
from repro.network.flow import HOOK_FLOW_REALLOC, HOOK_FLOW_WARNING, FlowNetwork

#: Per-sanitizer cap so a broken invariant doesn't flood the report.
MAX_FINDINGS_PER_SANITIZER = 20

# Runtime rules carry no lint function: they fire from hooks.  Registering
# them keeps the catalogue complete and lets ``--disable`` suppress them.
DEFAULT_REGISTRY.register(Rule(
    id="SZ001", name="time-monotonic", category="runtime", severity="error",
    description="Virtual time must be non-decreasing across dispatched "
                "events.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ002", name="link-capacity", category="runtime", severity="error",
    description="Max-min certificate, feasibility: after a reallocation "
                "the summed rates of the active flows over any directed "
                "link must not exceed its live bandwidth.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ003", name="heap-leak", category="runtime", severity="error",
    description="No live events may remain queued after the run loop "
                "drains, and cancelled-event accounting must balance.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ004", name="allocator-convergence", category="runtime",
    severity="warning",
    description="The max-min allocator hit a numerical-safety edge "
                "(progressive filling stalled without freezing a flow); "
                "allocated rates may be conservative.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ005", name="fault-restart-consistency", category="runtime",
    severity="error",
    description="After a faulted run, transient link degradations must be "
                "restored, no flow may be stranded, every task must have "
                "finished, and stall accounting must be non-negative.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ006", name="path-capacity", category="runtime", severity="error",
    description="Max-min certificate, bottleneck: after a reallocation "
                "every active flow's route must consist of topology edges "
                "and cross a saturated link on which no flow has a higher "
                "rate.",
))


def _emit(report: Report, rule_id: str, message: str, location: str = "",
          **detail: object) -> None:
    rule = DEFAULT_REGISTRY.get(rule_id)
    report.add(Finding(rule=rule.id, name=rule.name, severity=rule.severity,
                       message=message, location=location, detail=detail))


class TimeMonotonicSanitizer:
    """Hook asserting the engine clock never moves backwards."""

    def __init__(self, report: Report):
        self.report = report
        self._last = float("-inf")
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        time = ctx.time
        if time >= self._last:
            self._last = time
        elif self._fired < MAX_FINDINGS_PER_SANITIZER:
            self._fired += 1
            _emit(self.report, "SZ001",
                  f"virtual time moved backwards: {time!r} after "
                  f"{self._last!r} (at {ctx.pos})",
                  location=ctx.pos, time=time, previous=self._last)


class MaxMinCertificate:
    """Hook certifying that every reallocation leaves max-min fair rates.

    A rate vector is max-min fair exactly when it is feasible and every
    flow has a *bottleneck*: a saturated link on its route on which no
    flow has a higher rate.  Fires on
    :data:`~repro.network.flow.HOOK_FLOW_REALLOC`, whose item is every
    active flow, so one pass accumulates each directed link's load and
    largest rate and a second pass checks both conditions:

    * **SZ002** — no link's load exceeds its live bandwidth
      × (1 + *rel_tolerance*);
    * **SZ006** — every route edge is a topology edge, and every flow
      crosses a link with load ≥ bandwidth × (1 − *rel_tolerance*) whose
      largest rate is no more than the flow's own (within the same
      tolerance).

    *capacity* / *bottleneck* switch the two rules individually so the
    registry can disable either.
    """

    def __init__(self, report: Report, rel_tolerance: float = 1e-6,
                 capacity: bool = True, bottleneck: bool = True):
        self.report = report
        self.rel_tolerance = rel_tolerance
        self.capacity = capacity
        self.bottleneck = bottleneck
        self._fired: Dict[str, int] = {}

    def _flag(self, rule_id: str, message: str, location: str,
              **detail: object) -> None:
        fired = self._fired.get(rule_id, 0)
        if fired < MAX_FINDINGS_PER_SANITIZER:
            self._fired[rule_id] = fired + 1
            _emit(self.report, rule_id, message, location=location, **detail)

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != HOOK_FLOW_REALLOC:
            return
        topology = ctx.detail["topology"]
        time = ctx.time
        load: Dict[Tuple[str, str], float] = {}
        top: Dict[Tuple[str, str], float] = {}
        routed = []
        for flow in ctx.item:
            missing = next((edge for edge in flow.route
                            if not topology.has_edge(*edge)), None)
            if missing is not None:
                if self.bottleneck:
                    u, v = missing
                    self._flag("SZ006",
                               f"flow {flow.src}->{flow.dst} routed over "
                               f"{u}->{v}, which is not a topology edge",
                               f"edge {u}-{v}",
                               src=flow.src, dst=flow.dst, time=time)
                continue
            rate = flow.rate
            for edge in flow.route:
                load[edge] = load.get(edge, 0.0) + rate
                if rate >= top.get(edge, 0.0):
                    top[edge] = rate
            routed.append(flow)
        capacity = {(u, v): topology[u][v]["bandwidth"] for u, v in load}
        if self.capacity:
            over = 1.0 + self.rel_tolerance
            for (u, v), value in load.items():
                cap = capacity[(u, v)]
                if value > cap * over:
                    self._flag("SZ002",
                               f"link {u}->{v} allocated {value:.6g} B/s "
                               f"over a {cap:.6g} B/s capacity at "
                               f"t={time:g}",
                               f"edge {u}-{v}",
                               load=value, capacity=cap, time=time)
        if self.bottleneck:
            under = 1.0 - self.rel_tolerance
            for flow in routed:
                highest = flow.rate / under
                if not any(load[edge] >= capacity[edge] * under
                           and top[edge] <= highest for edge in flow.route):
                    self._flag("SZ006",
                               f"flow {flow.src}->{flow.dst} at "
                               f"{flow.rate:.6g} B/s crosses no saturated "
                               f"link on which its rate is the largest at "
                               f"t={time:g}: rates are not max-min fair",
                               f"{flow.src}->{flow.dst}",
                               rate=flow.rate, time=time)


class AllocatorWarningSanitizer:
    """Hook surfacing the allocator's numerical-safety warnings.

    :class:`~repro.network.flow.FlowNetwork` fires
    :data:`~repro.network.flow.HOOK_FLOW_WARNING` when progressive filling
    breaks out of its loop without converging (the branch that used to be
    a silent ``break``).  Each warning becomes an SZ004 finding carrying
    the allocator's own message and detail.
    """

    def __init__(self, report: Report):
        self.report = report
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != HOOK_FLOW_WARNING:
            return
        if self._fired < MAX_FINDINGS_PER_SANITIZER:
            self._fired += 1
            _emit(self.report, "SZ004",
                  f"{ctx.item} at t={ctx.time:g}",
                  location="allocator", time=ctx.time, **ctx.detail)


class HeapLeakSanitizer:
    """Post-run check for events stranded in (or leaked from) the heap."""

    def __init__(self, report: Report):
        self.report = report

    def check(self, engine: Engine) -> None:
        pending = engine.pending_events
        if pending > 0:
            _emit(self.report, "SZ003",
                  f"{pending} live event(s) still queued after the run "
                  "loop drained — a handler leaked scheduled work",
                  location="engine", pending=pending)
        if engine._cancelled < 0 or engine._cancelled > len(engine._queue):
            _emit(self.report, "SZ003",
                  f"cancelled-event accounting out of range: "
                  f"{engine._cancelled} cancelled vs {len(engine._queue)} "
                  "queued entries", location="engine",
                  cancelled=engine._cancelled, queued=len(engine._queue))


class RestartConsistencySanitizer:
    """Post-run check that fault injection left a consistent simulation.

    A checkpoint-restart cycle that strands a flow, leaves a link
    degraded past its last fault window, or double-counts stall time
    silently skews time-to-train; this turns each of those into an SZ005
    finding.  Runs only when a fault injector was attached.
    """

    def __init__(self, report: Report):
        self.report = report

    def check(self, injector: Any, sim: Any = None,
              network: Any = None) -> None:
        for message in injector.consistency_errors():
            _emit(self.report, "SZ005", message, location="injector")
        if sim is not None and sim.unfinished_tasks:
            _emit(self.report, "SZ005",
                  f"{sim.unfinished_tasks} task(s) never finished after "
                  "fault recovery", location="taskgraph",
                  unfinished=sim.unfinished_tasks)
        if network is not None:
            active = getattr(network, "active_flows", 0)
            if active:
                _emit(self.report, "SZ005",
                      f"{active} flow(s) still active after the run — a "
                      "stall or restart stranded them", location="network",
                      active=active)


class SanitizerSuite:
    """All runtime sanitizers behind one attach/finalize pair.

    Hooks the network with the max-min certificate (SZ002 + SZ006) and
    the allocator-warning sanitizer (SZ004), and the engine with the
    time-monotonic sanitizer (SZ001); SZ003 and SZ005 run in
    :meth:`finalize`.  Every rule the registry disables is skipped.

    Usage::

        suite = SanitizerSuite()
        suite.attach(engine=engine, network=network)
        engine.run()
        suite.finalize(engine)
        if suite.report.has_errors: ...
    """

    def __init__(self, registry: Optional[RuleRegistry] = None):
        self.registry = registry or DEFAULT_REGISTRY
        self.report = Report()
        self._time: Optional[TimeMonotonicSanitizer] = None
        self._certificate: Optional[MaxMinCertificate] = None
        self._allocator: Optional[AllocatorWarningSanitizer] = None
        self._injector: Any = None
        self._sim: Any = None
        self._network: Any = None
        self._attached: List[Tuple[Any, Any]] = []

    def attach(self, engine: Optional[Engine] = None, network: Any = None,
               injector: Any = None, sim: Any = None) -> "SanitizerSuite":
        self._injector = injector
        self._sim = sim
        self._network = network
        if engine is not None and self.registry.is_enabled("SZ001"):
            self._time = TimeMonotonicSanitizer(self.report)
            engine.accept_hook(self._time)
            self._attached.append((engine, self._time))
        if isinstance(network, FlowNetwork):
            capacity = self.registry.is_enabled("SZ002")
            bottleneck = self.registry.is_enabled("SZ006")
            if capacity or bottleneck:
                self._certificate = MaxMinCertificate(
                    self.report, capacity=capacity, bottleneck=bottleneck)
                network.accept_hook(self._certificate)
                self._attached.append((network, self._certificate))
            if self.registry.is_enabled("SZ004"):
                self._allocator = AllocatorWarningSanitizer(self.report)
                network.accept_hook(self._allocator)
                self._attached.append((network, self._allocator))
        return self

    def finalize(self, engine: Optional[Engine] = None) -> Report:
        """Run post-run checks and detach every hook; returns the report."""
        if engine is not None and self.registry.is_enabled("SZ003"):
            HeapLeakSanitizer(self.report).check(engine)
        if self._injector is not None and self.registry.is_enabled("SZ005"):
            RestartConsistencySanitizer(self.report).check(
                self._injector, sim=self._sim, network=self._network)
        for hookable, hook in self._attached:
            try:
                hookable.remove_hook(hook)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._attached.clear()
        return self.report
