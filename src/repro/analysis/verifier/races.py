"""Dynamic determinism race detectors (``RC``-series, Tier B).

The bit-identical determinism contract (see ``docs/verifier.md``) rests
on three runtime invariants the static verifier cannot see:

* **RC001 tie-order race** — events sharing a timestamp must pop in
  program (insertion) order.  The engine guarantees this by stamping a
  monotone sequence number at :meth:`~repro.engine.engine.Engine.
  schedule` time; a scheduler extension that pushes heap entries
  directly, reuses sequence numbers, or derives them from an unstable
  source makes same-timestamp pop order depend on heap internals — the
  runs *look* fine but diverge across processes.  The detector watches
  every dispatch through the engine's observer fast path and checks,
  within each same-timestamp tie group, that heap order, sequence
  monotonicity, and the event's own stamped sequence all agree.  It
  also folds ``(time, seq)`` of every dispatch into an order digest —
  two runs of the same workload must produce equal digests.

* **RC002 happens-before violation** — the executed order must be a
  linear extension of the task graph: no task may *start* before every
  dependency has *finished*.  Checked edge-by-edge at each dependency's
  ``task_end`` hook, reading its dependents from the columnar graph's
  CSR (an epoch/vector-clock-lite formulation: each edge is validated
  exactly once, O(edges) total, no per-task clock storage).

* **RC003 global-RNG drift** — strategy callbacks must not draw from the
  unseeded process-global ``random`` / NumPy generators (seeded local
  generators are how every repro component gets randomness); global
  draws make results depend on import order and host entropy.  The
  detector snapshots both global generator states at attach and
  compares at finalize.

Unlike the SZ sanitizers (which check *physical* invariants of one run),
these check the *reproducibility* contract across runs; they ride the
same registry, so ``--disable RC00x`` and the catalogue work unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Optional

import numpy as np

from repro.analysis.findings import Finding, Report
from repro.analysis.registry import DEFAULT_REGISTRY, Rule, RuleRegistry
from repro.engine.engine import Engine
from repro.engine.hooks import HookCtx

#: Per-detector cap so a broken invariant doesn't flood the report.
MAX_FINDINGS_PER_DETECTOR = 20

#: Mask keeping the order digest a stable 64-bit value.
_DIGEST_MASK = (1 << 64) - 1

# Runtime rules carry no lint function: they fire from hooks/observers.
DEFAULT_REGISTRY.register(Rule(
    id="RC001", name="tie-order-race", category="runtime", severity="error",
    description="Same-timestamp events must pop in insertion order: heap "
                "order, sequence monotonicity, and each event's stamped "
                "sequence number must agree within every tie group.",
))
DEFAULT_REGISTRY.register(Rule(
    id="RC002", name="happens-before-violation", category="runtime",
    severity="error",
    description="The executed order must be a linear extension of the "
                "task graph: no task may start before all of its "
                "dependencies have finished.",
))
DEFAULT_REGISTRY.register(Rule(
    id="RC003", name="global-rng-drift", category="runtime",
    severity="warning",
    description="Simulation callbacks must not draw from the process-"
                "global random/NumPy generators; global draws break "
                "cross-process determinism.",
))


def _emit(report: Report, rule_id: str, message: str, location: str = "",
          **detail: object) -> None:
    rule = DEFAULT_REGISTRY.get(rule_id)
    report.add(Finding(rule=rule.id, name=rule.name, severity=rule.severity,
                       message=message, location=location, detail=detail))


class TieOrderDetector:
    """Engine dispatch observer enforcing deterministic tie-breaking."""

    def __init__(self, report: Report):
        self.report = report
        self.digest = 0
        self._last_time = float("-inf")
        self._last_seq = -1
        self._fired = 0

    def observe(self, time: float, seq: int, event: object) -> None:
        self.digest = ((self.digest * 1000003) ^ hash((time, seq))) \
            & _DIGEST_MASK
        if time == self._last_time:
            if seq <= self._last_seq:
                self._fire(time, seq, self._last_seq,
                           "popped out of insertion order" if seq <
                           self._last_seq else "duplicates the previous "
                           "event's sequence number")
        stamped = getattr(event, "_seq", None)
        if stamped is not None and stamped != seq:
            self._fire(time, seq, stamped,
                       f"heap entry seq {seq} disagrees with the event's "
                       f"stamped seq {stamped} — the entry bypassed "
                       "Engine.schedule, so its tie position depends on "
                       "insertion internals")
        self._last_time = time
        self._last_seq = seq

    def _fire(self, time: float, seq: int, other: int, why: str) -> None:
        if self._fired < MAX_FINDINGS_PER_DETECTOR:
            self._fired += 1
            _emit(self.report, "RC001",
                  f"t={time:g} tie group: event seq {seq} {why} "
                  f"(previous/stamped seq {other}) — same-timestamp pop "
                  "order is not reproducible",
                  location=f"t={time:g}", time=time, seq=seq, other=other)


class HappensBeforeDetector:
    """Task-graph hook verifying executed order extends the DAG order.

    A finished task's dependents are read from the simulator's columnar
    graph (CSR dependents plus fence links and releases), so every
    edge is checked whether the task was built with ``add_*`` or
    instanced from a plan.
    """

    def __init__(self, report: Report, sim: Any):
        self.report = report
        self.sim = sim
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != "task_end":
            return
        task = ctx.item
        graph = self.sim.columns
        started = graph.start
        for row in graph.successors(task.task_id):
            if started[row] is None:
                continue
            if self._fired < MAX_FINDINGS_PER_DETECTOR:
                self._fired += 1
                name = graph.name[row]
                _emit(self.report, "RC002",
                      f"task {name!r} started at t={started[row]:g} "
                      f"before its dependency {task.name!r} finished at "
                      f"t={ctx.time:g} — the executed order is not a "
                      "linear extension of the task graph",
                      location=f"task[{row}]", task=name,
                      dependency=task.name, started=started[row],
                      finished=ctx.time)


class RngDriftDetector:
    """Snapshot/compare of the process-global RNG states."""

    def __init__(self, report: Report):
        self.report = report
        self._random_state: Optional[object] = None
        self._numpy_digest: Optional[str] = None

    @staticmethod
    def _numpy_state_digest() -> str:
        kind, keys, pos, has_gauss, gauss = np.random.get_state()
        return f"{kind}:{hash(keys.tobytes())}:{pos}:{has_gauss}:{gauss}"

    def snapshot(self) -> None:
        self._random_state = random.getstate()
        self._numpy_digest = self._numpy_state_digest()

    def compare(self) -> None:
        if self._random_state is not None \
                and random.getstate() != self._random_state:
            _emit(self.report, "RC003",
                  "the process-global random.Random state changed during "
                  "the simulation — a callback draws from the unseeded "
                  "global generator, so results depend on import order "
                  "and host entropy", location="random")
        if self._numpy_digest is not None \
                and self._numpy_state_digest() != self._numpy_digest:
            _emit(self.report, "RC003",
                  "the process-global numpy.random state changed during "
                  "the simulation — a callback draws from the unseeded "
                  "global generator", location="numpy.random")


class RaceDetectorSuite:
    """All determinism race detectors behind one attach/finalize pair.

    Mirrors :class:`~repro.analysis.sanitizers.SanitizerSuite`::

        suite = RaceDetectorSuite()
        suite.attach(engine=engine, sim=sim)
        sim.run()
        suite.finalize()
        if suite.report.has_errors: ...
        suite.order_digest  # equal across identical runs

    Attach before the run: the engine binds its dispatch observer once
    at the top of :meth:`~repro.engine.engine.Engine.run`.
    """

    def __init__(self, registry: Optional[RuleRegistry] = None):
        self.registry = registry or DEFAULT_REGISTRY
        self.report = Report()
        #: Stable fold of every dispatched ``(time, seq)`` pair; equal
        #: digests certify two runs dispatched identical schedules.
        self.order_digest: Optional[int] = None
        self._tie: Optional[TieOrderDetector] = None
        self._happens: Optional[HappensBeforeDetector] = None
        self._rng: Optional[RngDriftDetector] = None
        self._engine: Optional[Engine] = None
        self._sim = None

    def attach(self, engine: Optional[Engine] = None,
               sim: Any = None) -> "RaceDetectorSuite":
        if engine is not None and self.registry.is_enabled("RC001"):
            self._tie = TieOrderDetector(self.report)
            engine.set_dispatch_observer(self._tie.observe)
            self._engine = engine
        if sim is not None and self.registry.is_enabled("RC002"):
            self._happens = HappensBeforeDetector(self.report, sim)
            sim.accept_hook(self._happens)
            self._sim = sim
        if self.registry.is_enabled("RC003"):
            self._rng = RngDriftDetector(self.report)
            self._rng.snapshot()
        return self

    def finalize(self) -> Report:
        """Run post-run checks and detach everything; returns the report."""
        if self._tie is not None:
            self.order_digest = self._tie.digest
            if self._engine is not None:
                self._engine.set_dispatch_observer(None)
            self._tie = None
            self._engine = None
        if self._happens is not None and self._sim is not None:
            try:
                self._sim.remove_hook(self._happens)
            except ValueError:  # pragma: no cover - already detached
                pass
            self._happens = None
            self._sim = None
        if self._rng is not None:
            self._rng.compare()
            self._rng = None
        return self.report
