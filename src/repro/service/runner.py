"""The parallel sweep service.

:class:`SweepRunner` fans a list of :class:`SimulationConfig` points over a
``concurrent.futures.ProcessPoolExecutor`` (or runs them in-process when
``max_workers <= 1``), with:

* a content-addressed on-disk result cache (:mod:`repro.service.cache`) —
  re-running any figure or sweep returns previously computed points
  instantly;
* shared-work dedup — cross-GPU trace rescaling happens once per
  ``(trace, target GPU)`` in the parent, and performance-model fits happen
  once per worker process instead of once per point;
* extrapolation-plan sharing (:mod:`repro.core.plan`) — points differing
  only in network/topology/fault parameters reuse one cached task-graph
  plan; with a plan directory the parent pre-builds each distinct plan
  once and workers load it from disk;
* graceful degradation — a failing config yields a structured
  :class:`SweepError` (with the worker traceback) instead of killing the
  sweep, and each point runs under an optional wall-clock timeout;
* worker-crash survival — a point whose worker process dies (segfault,
  OOM kill, chaos injection) breaks only its pool, not the sweep: the
  executor is rebuilt and the in-flight points are retried in isolation
  with seeded, bounded exponential backoff, then (last rung) once
  in-process with chaos disarmed; a point that still fails becomes
  ``SweepError(kind="WorkerCrashed")`` while every other point completes
  normally;
* a crash-safe write-ahead journal (:mod:`repro.service.journal`) —
  every dispatch and every terminal disposition is fsync'd before the
  sweep proceeds, so a SIGKILL'd sweep resumes from its journal
  re-dispatching only the incomplete points, bit-identically;
* per-point deadline budgets — a cooperative soft deadline enforced by
  the engine heartbeat (partial progress preserved) plus the hard
  ``SIGALRM``/watchdog kill, both reported as ``PointTimeout``;
* a dispatch circuit breaker (:class:`CircuitBreaker`) — a crash/timeout
  storm trips the breaker and the remaining points fail fast as
  ``CircuitOpen`` instead of feeding workers to a dying machine, with
  half-open probes to resume once points succeed again;
* live progress through the existing :mod:`repro.engine.hooks` mechanism —
  the runner is a :class:`Hookable` and fires ``sweep_start`` /
  ``sweep_point`` / ``sweep_end`` positions with completed/total counts,
  cache hit-rate, aggregate simulated-events/sec, and an ETA.

Determinism: TrioSim is deterministic and every point is independent, so
parallel execution, in-process execution, cache replay, and journal
resume all produce bit-identical ``total_time`` values.

The failure taxonomy (``SweepError.kind``) is documented in
``docs/resilience.md``: ``LintError`` / ``VerifyError`` (pre-dispatch),
``PointTimeout`` (either deadline), ``WorkerCrashed`` (all rungs
exhausted), ``CircuitOpen`` (failed fast by the breaker), and
``Interrupted`` (Ctrl-C before the point completed).
"""

from __future__ import annotations

import os
import random
import time as _wall
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.linter import lint_config
from repro.analysis.reporters import render_text
from repro.core.config import SimulationConfig
from repro.core.plan import PlanCache
from repro.core.results import SimulationResult
from repro.core.simulator import TrioSim
from repro.engine.hooks import HookCtx, Hookable
from repro.extrapolator.optime import OpTimeModel
from repro.perfmodel.scaling import CrossGPUScaler
from repro.service import transport
from repro.service import worker as _worker
from repro.service.cache import ResultCache, trace_digest
from repro.service.journal import (
    JournalMismatchError,
    SweepJournal,
    check_resume,
    point_fingerprint,
    sweep_fingerprint,
)
from repro.trace.trace import Trace

#: Hook positions emitted by the runner.
HOOK_SWEEP_START = "sweep_start"
HOOK_SWEEP_POINT = "sweep_point"
HOOK_SWEEP_END = "sweep_end"


@dataclass(frozen=True)
class SweepError:
    """Structured record of one failed sweep point."""

    kind: str        # taxonomy name, e.g. "PointTimeout", "WorkerCrashed"
    message: str
    traceback: str = ""
    #: Structured context — e.g. a soft timeout's partial progress
    #: (elapsed wall time, events dispatched, simulated_time reached).
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "message": self.message,
                "traceback": self.traceback}
        if self.detail:
            data["detail"] = dict(self.detail)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepError":
        return cls(**data)


class SweepPointError(RuntimeError):
    """Raised by :meth:`SweepOutcome.unwrap` for a failed point."""

    def __init__(self, error: SweepError):
        super().__init__(f"{error.kind}: {error.message}\n{error.traceback}")
        self.error = error


@dataclass
class SweepOutcome:
    """Result (or failure) of one sweep point, in input order."""

    index: int
    config: SimulationConfig
    label: str = ""
    result: Optional[SimulationResult] = None
    error: Optional[SweepError] = None
    cached: bool = False
    #: Runtime sanitizer findings (dict form) when the runner sanitizes.
    sanitizer_findings: List[dict] = field(default_factory=list)
    #: Isolated re-executions this point needed after its worker died.
    retries: int = 0
    #: Replayed from a resume journal instead of being re-simulated.
    resumed: bool = False
    #: Recovered by the last graceful-degradation rung (in-process, no
    #: pool) after every isolated retry crashed its worker.
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    def unwrap(self) -> SimulationResult:
        """The result, or raise :class:`SweepPointError`."""
        if self.result is None:
            raise SweepPointError(
                self.error or SweepError("Unknown", "point produced no result")
            )
        return self.result

    def to_dict(self) -> dict:
        """JSON-safe summary (the CLI's sweep output codepath)."""
        return {
            "index": self.index,
            "label": self.label,
            "config": (self.config.to_dict()
                       if self.config.is_serializable else None),
            "cached": self.cached,
            "result": self.result.to_dict() if self.result else None,
            "error": self.error.to_dict() if self.error else None,
            "sanitizer_findings": list(self.sanitizer_findings),
            "retries": self.retries,
            "resumed": self.resumed,
            "degraded": self.degraded,
        }


@dataclass
class SweepMetrics:
    """Live counters surfaced through the progress hooks."""

    total: int = 0
    completed: int = 0
    cache_hits: int = 0
    errors: int = 0
    fresh_events: int = 0     # engine events dispatched for non-cached points
    elapsed: float = 0.0
    retries: int = 0          # isolated re-executions after worker crashes
    worker_crashes: int = 0   # points abandoned as WorkerCrashed
    plan_builds: int = 0      # extrapolator graph builds actually performed
    plan_cache_hits: int = 0  # fresh points served by a cached plan
    timeouts: int = 0         # points cut down as PointTimeout (either kind)
    circuit_trips: int = 0    # breaker transitions into the open state
    circuit_skips: int = 0    # points failed fast as CircuitOpen
    interrupted: int = 0      # points marked Interrupted by Ctrl-C
    resumed: int = 0          # points replayed from a resume journal
    degraded_recoveries: int = 0  # crash victims saved by the in-process rung

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.fresh_events / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to finish, or ``None`` before any completion.

        ``None`` (serialized ``null``), not ``NaN`` — ``json.dumps``
        renders ``NaN`` bare, which is not JSON and which strict
        consumers reject.
        """
        if not self.completed:
            return None
        remaining = self.total - self.completed
        return remaining * (self.elapsed / self.completed)

    @staticmethod
    def _json_safe(value: Optional[float]) -> Optional[float]:
        """Non-finite floats become ``None`` so detail() is valid JSON."""
        if value is None or value != value or value in (
                float("inf"), float("-inf")):
            return None
        return value

    def detail(self) -> dict:
        return {
            "completed": self.completed,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "hit_rate": self._json_safe(self.hit_rate),
            "errors": self.errors,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "plan_builds": self.plan_builds,
            "plan_cache_hits": self.plan_cache_hits,
            "timeouts": self.timeouts,
            "circuit_trips": self.circuit_trips,
            "circuit_skips": self.circuit_skips,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "degraded_recoveries": self.degraded_recoveries,
            "fresh_events": self.fresh_events,
            "events_per_sec": self._json_safe(self.events_per_sec),
            "eta_seconds": self._json_safe(self.eta_seconds),
            "elapsed": self.elapsed,
        }


class CircuitBreaker:
    """Sliding-window failure-rate circuit breaker for point dispatch.

    Protects a sweep from feeding every remaining point to a dying
    substrate (an OOM-looping machine, a poisoned worker image): once the
    crash/timeout rate over the last :attr:`window` dispatched points
    reaches :attr:`threshold`, the breaker *trips open* and subsequent
    points fail fast as ``SweepError(kind="CircuitOpen")`` without
    touching a worker.  While open, every :attr:`probe_interval`-th
    admission attempt is let through as a *half-open probe*: a probe that
    succeeds closes the breaker (dispatch resumes normally, window
    cleared); a probe that fails reopens it.

    Only infrastructure failures count against the breaker
    (:attr:`FAILURE_KINDS`: worker crashes and deadline overruns) — a
    point that fails on its own config (lint, verify, simulation error)
    says nothing about the substrate's health.

    Deterministic by construction: every transition is driven by counts
    of recorded outcomes and skipped admissions, never by wall-clock
    time, so breaker behaviour in tests and replays is exactly
    reproducible.
    """

    #: Error kinds that count as substrate failures.
    FAILURE_KINDS = frozenset({"WorkerCrashed", _worker.TIMEOUT_KIND})

    def __init__(self, window: int = 16, threshold: float = 0.5,
                 min_samples: int = 4, probe_interval: int = 4):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.window = window
        self.threshold = threshold
        self.min_samples = min_samples
        self.probe_interval = probe_interval
        #: True entries are failures; bounded sliding window.
        self._outcomes: deque = deque(maxlen=window)
        self.state = "closed"          # closed | open | half_open
        self.trips = 0
        self.last_failure_kind: Optional[str] = None
        self._skips_since_open = 0

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def admit(self) -> bool:
        """May the next point be dispatched?  (May transition to probe.)

        Closed: always.  Half-open: no — exactly one probe flies at a
        time.  Open: fail fast, except that every
        :attr:`probe_interval`-th attempt becomes the half-open probe and
        is admitted.
        """
        if self.state == "closed":
            return True
        if self.state == "half_open":
            return False
        self._skips_since_open += 1
        if self._skips_since_open >= self.probe_interval:
            self.state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        """A dispatched point completed (or failed on its own config)."""
        if self.state == "half_open":
            # The probe came back healthy: close and forget the storm.
            self.state = "closed"
            self._outcomes.clear()
            self._skips_since_open = 0
            return
        self._outcomes.append(False)

    def record_failure(self, kind: str) -> bool:
        """A dispatched point failed as *kind*; True when this tripped.

        Kinds outside :attr:`FAILURE_KINDS` are ignored (returns False).
        A half-open probe failure reopens immediately (counted as a
        trip); in the closed state the window must both hold
        :attr:`min_samples` outcomes and cross :attr:`threshold`.
        """
        if kind not in self.FAILURE_KINDS:
            return False
        self.last_failure_kind = kind
        if self.state == "half_open":
            self.state = "open"
            self._skips_since_open = 0
            self.trips += 1
            return True
        self._outcomes.append(True)
        if (self.state == "closed"
                and len(self._outcomes) >= self.min_samples
                and self.failure_rate >= self.threshold):
            self.state = "open"
            self._skips_since_open = 0
            self.trips += 1
            return True
        return False


class SweepRunner(Hookable):
    """Run many ``(trace, config)`` points fast, cached, and fault-tolerant.

    Each point that survives lint, verify and the cache takes one of two
    paths.  With more than one worker, serializable points go to a
    process pool, always through :func:`repro.service.worker.run_chunk`
    in chunks of :meth:`_chunk_size` points (one point per future on
    small sweeps); a crash's victims are retried one at a time through
    the same entry point.  Everything else runs in the parent through
    :meth:`_simulate_in_parent`, which is also the last rung of crash
    recovery.

    Parameters
    ----------
    max_workers:
        Process count for the fan-out; ``None`` uses the machine's CPU
        count, and values ``<= 1`` run every point in-process (the
        deterministic baseline — results are bit-identical either way).
    cache:
        A :class:`ResultCache`, a directory path for one, or ``None`` to
        disable caching.
    timeout:
        Optional per-point wall-clock budget in seconds; an expired point
        becomes a ``PointTimeout`` error record.  Alias for the hard
        deadline — ``deadline_hard`` wins when both are given.
    deadline_soft:
        Optional cooperative per-point budget (seconds): the engine
        heartbeat checks the wall clock every few hundred events and
        stops the point with a ``PointTimeout`` error carrying its
        partial progress (events dispatched, simulated time reached).
        A per-config ``config.deadline_soft`` overrides the sweep-wide
        value for that point.
    deadline_hard:
        Optional uncooperative per-point budget (seconds): ``SIGALRM``
        (or the watchdog thread) kills the point wherever it is.  Give
        both — soft first for attributable partial progress, hard as the
        backstop for points stuck outside the engine loop.  Per-config
        ``config.deadline_hard`` overrides.
    journal:
        A :class:`~repro.service.journal.SweepJournal`, a directory path
        for one, or ``None`` (default) to disable write-ahead journaling
        entirely (zero overhead).  With a journal every dispatch and
        every terminal disposition is fsync'd before the sweep proceeds.
    resume:
        With a journal: replay completed points from it and re-dispatch
        only the remainder.  The journal's fingerprint must match this
        sweep (trace, point set and order, timeline flag) or the runner
        raises :class:`~repro.service.journal.JournalMismatchError`
        (lint rule ``SV001``); resume admission findings land on
        :attr:`last_resume_report`.
    breaker:
        A :class:`CircuitBreaker`, ``True`` for one with defaults, or
        ``None`` (default) to dispatch unconditionally.  See the class
        docstring for trip/probe semantics.
    hooks:
        Observers registered for the runner's progress positions.
    lint:
        Statically lint every config against the trace *before* any
        simulation is dispatched (on by default).  A point with error
        findings becomes a structured ``LintError`` outcome instead of
        wasting a worker slot on a doomed or nonsensical simulation.
    sanitize:
        Run every simulated point with the runtime sanitizers attached;
        findings land on each outcome's ``sanitizer_findings``.
    verify:
        Deep-verify every point's task graph *before* any simulation is
        dispatched (cycles, dead tasks, mismatched collectives,
        memory-infeasible schedules — the ``DV`` rules) and run the
        determinism race detectors (``RC`` rules) during each point.  A
        point whose graph fails verification becomes a structured
        ``VerifyError`` outcome, mirroring ``LintError``; points sharing
        an extrapolation plan share one verification, and the verified
        plans land in the plan cache so the sweep itself reuses them.
        Race findings ride each outcome's ``sanitizer_findings``
        (distinguishable by their ``RC``/``DV`` rule ids).
    retry_seed:
        Seed of the crash-retry backoff jitter, so retry timing (the only
        nondeterminism a crash introduces) is reproducible.
    retry_backoff:
        Base of the bounded exponential backoff between isolated retries
        of a crashed point, in seconds.
    plan_cache:
        Extrapolation-plan sharing (see :mod:`repro.core.plan`; on by
        default).  ``True`` keeps an in-memory :class:`PlanCache` in the
        parent (in-process points) plus a private one per worker; a
        directory path (or a rooted :class:`PlanCache`) additionally
        persists plans, letting the parent pre-build each distinct plan
        once and every worker load it; ``False``/``None`` disables the
        cache and every point re-extrapolates.  Results are bit-identical
        in all three modes.
    """

    #: Bound on memoized (rescaled trace, fitted models) entries.
    SHARED_WORK_LIMIT = 64

    #: Isolated re-executions granted to a point whose worker died; a
    #: point still crashing after these becomes ``WorkerCrashed``.
    MAX_CRASH_RETRIES = 2

    #: Ceiling on any single backoff sleep, seconds.
    MAX_BACKOFF = 2.0

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Union[ResultCache, str, Path, None] = None,
                 timeout: Optional[float] = None, hooks: Sequence = (),
                 lint: bool = True, sanitize: bool = False,
                 verify: bool = False,
                 retry_seed: int = 0, retry_backoff: float = 0.05,
                 plan_cache: Union[PlanCache, str, Path, bool, None] = True,
                 deadline_soft: Optional[float] = None,
                 deadline_hard: Optional[float] = None,
                 journal: Union[SweepJournal, str, Path, None] = None,
                 resume: bool = False,
                 breaker: Union[CircuitBreaker, bool, None] = None):
        super().__init__()
        self.max_workers = max_workers if max_workers is not None \
            else (os.cpu_count() or 1)
        self.cache = (ResultCache(cache)
                      if isinstance(cache, (str, Path)) else cache)
        if plan_cache is True:
            self.plan_cache: Optional[PlanCache] = PlanCache()
        elif isinstance(plan_cache, (str, Path)):
            self.plan_cache = PlanCache(root=plan_cache)
        elif isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        else:
            self.plan_cache = None
        self.timeout = timeout
        if (deadline_soft is not None and deadline_hard is not None
                and deadline_soft > deadline_hard):
            raise ValueError("deadline_soft must not exceed deadline_hard")
        self.deadline_soft = deadline_soft
        self.deadline_hard = deadline_hard
        self.journal = (SweepJournal(journal)
                        if isinstance(journal, (str, Path)) else journal)
        self.resume = resume
        if breaker is True:
            self.breaker: Optional[CircuitBreaker] = CircuitBreaker()
        else:
            self.breaker = breaker or None
        self.lint = lint
        self.sanitize = sanitize
        self.verify = verify
        self.retry_seed = retry_seed
        self.retry_backoff = retry_backoff
        self.last_metrics: Optional[SweepMetrics] = None
        #: Resume admission findings (SV rules) from the latest run().
        self.last_resume_report = None
        # Per-run journal bookkeeping (set by run(), used by _note_done).
        self._journal_keys: Optional[List[str]] = None
        # (trace digest, target gpu) -> [prepared Trace, {perf_model: OpTimeModel}]
        # An LRU shared across run() calls, so per-point predict() loops
        # (the experiments harness) still rescale and fit exactly once.
        self._shared: "OrderedDict[str, list]" = OrderedDict()
        for hook in hooks:
            self.accept_hook(hook)

    # ------------------------------------------------------------------
    # Shared-work preparation
    # ------------------------------------------------------------------
    @staticmethod
    def _gpu_key(trace: Trace, config: SimulationConfig) -> str:
        """The rescaling target this config needs ("native" = none)."""
        target = config.gpu
        if target is not None and target.upper() != trace.gpu_name.upper():
            return target.upper()
        return "native"

    def _shared_work(self, trace: Trace, gpu_key: str) -> list:
        """The memoized ``[prepared trace, op-time models]`` slot for
        ``(trace, target GPU)`` — rescaling runs at most once per pair."""
        slot_key = f"{trace_digest(trace)}:{gpu_key}"
        slot = self._shared.get(slot_key)
        if slot is None:
            if gpu_key == "native":
                prepared = trace
            else:
                scaler = CrossGPUScaler.between(trace.gpu_name, gpu_key)
                prepared = scaler.convert_trace(trace)
            slot = [prepared, {}]
            self._shared[slot_key] = slot
            if len(self._shared) > self.SHARED_WORK_LIMIT:
                self._shared.popitem(last=False)
        else:
            self._shared.move_to_end(slot_key)
        return slot

    def _point_work(self, trace: Trace,
                    config: SimulationConfig) -> Tuple[Trace, OpTimeModel]:
        """The prepared trace and memoized op-time model for one point."""
        gpu_key = self._gpu_key(trace, config)
        point_trace, op_times = self._shared_work(trace, gpu_key)
        op_time = _worker.shared_op_time(point_trace, config.perf_model,
                                         op_times, gpu_key)
        return point_trace, op_time

    def _prepare_traces(self, trace: Trace, points: List[SweepOutcome]
                        ) -> Tuple[Dict[str, Trace], List[SweepOutcome]]:
        """Rescale *trace* once per distinct target GPU among *points*.

        Returns the prepared traces by GPU key, and the points whose
        target GPU could not be prepared (e.g. an unknown ``gpu`` with
        ``lint=False``).
        """
        prepared: Dict[str, Trace] = {}
        unprepared: List[SweepOutcome] = []
        for point in points:
            gpu_key = self._gpu_key(trace, point.config)
            if gpu_key in prepared:
                continue
            try:
                prepared[gpu_key] = self._shared_work(trace, gpu_key)[0]
            except Exception:
                unprepared.append(point)
        return prepared, unprepared

    def _plan_mode(self) -> Optional[str]:
        """The worker-initializer encoding of this runner's plan cache:
        ``None`` disabled, ``""`` private in-memory, else a shared
        directory."""
        if self.plan_cache is None:
            return None
        if self.plan_cache.root is not None:
            return str(self.plan_cache.root)
        return ""

    def _prepare_plans(self, trace: Trace, points,
                       metrics: "SweepMetrics") -> None:
        """Build each distinct plan once in the parent (disk-backed
        caches only), so pool workers load instead of re-extrapolating.

        Preparation is best-effort: a config whose plan can't even be
        built will fail identically — with a proper error record — when
        its point runs.
        """
        if self.plan_cache is None or self.plan_cache.root is None:
            return
        seen = set()
        for outcome in points:
            try:
                point_trace, op_time = self._point_work(trace, outcome.config)
                sim = TrioSim(point_trace, outcome.config,
                              record_timeline=False, op_time=op_time)
                key = sim.plan_key()
                if key in seen:
                    continue
                seen.add(key)
                _plan, source = self.plan_cache.get_or_build(
                    key, sim.build_plan)
                if source == "built":
                    metrics.plan_builds += 1
            except Exception:
                continue

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, trace: Trace, configs: Sequence[SimulationConfig],
            record_timeline: bool = False,
            labels: Optional[Sequence[str]] = None) -> List[SweepOutcome]:
        """Simulate every config against *trace*; outcomes in input order."""
        configs = list(configs)
        labels = list(labels) if labels is not None else [""] * len(configs)
        if len(labels) != len(configs):
            raise ValueError("labels must match configs in length")
        started = _wall.perf_counter()
        metrics = SweepMetrics(total=len(configs))
        self.last_metrics = metrics
        self.invoke_hooks(
            HookCtx(HOOK_SWEEP_START, 0.0, item=None, detail=metrics.detail())
        )

        outcomes = [
            SweepOutcome(index=i, config=cfg, label=labels[i])
            for i, cfg in enumerate(configs)
        ]
        base_key = (trace_digest(trace)
                    if (self.cache is not None or self.journal is not None)
                    else "")

        # Journal setup: fingerprint the sweep, then either replay a
        # matching journal (resume) or write a fresh begin record.  Both
        # the mismatch check and the replay happen before any lint /
        # verify / simulation work is dispatched.
        survivors = self._journal_open(trace, outcomes, record_timeline,
                                       base_key, metrics, started)

        try:
            # Lint pass: reject statically-broken points before
            # dispatching any simulation work for them.
            if self.lint:
                remaining = []
                for outcome in survivors:
                    report = lint_config(outcome.config, trace=trace)
                    if report.has_errors:
                        outcome.error = SweepError(
                            kind="LintError",
                            message="; ".join(str(f) for f in report.errors),
                            # Findings stand in for a traceback: the point
                            # never ran, but the error record must still
                            # explain why.
                            traceback=render_text(report, source="lint"),
                        )
                        self._note_done(outcome, metrics, started)
                    else:
                        remaining.append(outcome)
                survivors = remaining

            # Verify pass: deep-verify each distinct task graph once
            # before dispatching any simulation work built on it.
            if self.verify:
                survivors = self._verify_points(trace, survivors, metrics,
                                                started)

            # Cache pass: satisfy points without any simulation.
            pending: List[SweepOutcome] = []
            for outcome in survivors:
                hit = None
                if self.cache is not None and outcome.config.is_serializable:
                    key = self.cache.point_key(base_key, outcome.config,
                                               record_timeline)
                    hit = self.cache.load(key)
                if hit is not None:
                    outcome.result = hit
                    outcome.cached = True
                    metrics.cache_hits += 1
                    self._note_done(outcome, metrics, started)
                else:
                    pending.append(outcome)

            parallel = [o for o in pending if o.config.is_serializable]
            inproc = [o for o in pending if not o.config.is_serializable]
            workers = min(self.max_workers, len(parallel))
            if workers <= 1:
                inproc = pending
                parallel = []

            if parallel:
                self._run_parallel(trace, parallel, workers, record_timeline,
                                   metrics, started, base_key)
            if inproc:
                self._run_inproc(trace, inproc, record_timeline, metrics,
                                 started, base_key)
        except KeyboardInterrupt:
            # Mark everything that never reached a terminal state, leave
            # a clean journal tail, fire sweep_end, and let the
            # interrupt propagate (the CLI exits 130).
            self._mark_interrupted(outcomes, metrics)
            metrics.elapsed = _wall.perf_counter() - started
            self.invoke_hooks(
                HookCtx(HOOK_SWEEP_END, 0.0, item=outcomes,
                        detail=metrics.detail())
            )
            self._journal_close(metrics)
            raise

        metrics.elapsed = _wall.perf_counter() - started
        self.invoke_hooks(
            HookCtx(HOOK_SWEEP_END, 0.0, item=outcomes,
                    detail=metrics.detail())
        )
        self._journal_close(metrics)
        return outcomes

    # ------------------------------------------------------------------
    # Journal lifecycle
    # ------------------------------------------------------------------
    def _journal_open(self, trace: Trace, outcomes: List[SweepOutcome],
                      record_timeline: bool, base_key: str,
                      metrics: SweepMetrics,
                      started: float) -> List[SweepOutcome]:
        """Begin (or resume) the journal; returns the points still to run.

        Without a journal this is the identity on *outcomes*.  On resume,
        completed points are replayed from the journal's ``done`` records
        — results round-trip through JSON exactly, so a replayed point is
        bit-identical to re-simulating it — and only the remainder is
        returned for the lint/verify/cache/simulate passes.
        """
        self.last_resume_report = None
        self._journal_keys = None
        if self.journal is None:
            return outcomes
        keys = [
            point_fingerprint(base_key, o.config, record_timeline)
            for o in outcomes
        ]
        self._journal_keys = keys
        fingerprint = sweep_fingerprint(base_key, keys, record_timeline)
        if self.resume and self.journal.exists():
            state = self.journal.read()
            report = check_resume(state, fingerprint,
                                  deadline_hard=self._hard_deadline_default())
            self.last_resume_report = report
            if report.has_errors:
                raise JournalMismatchError(report)
            completed = state.completed
            survivors: List[SweepOutcome] = []
            for outcome in outcomes:
                record = completed.get(outcome.index)
                key = keys[outcome.index]
                # Defense in depth on top of the fingerprint check: a
                # done record is replayed only if it carries exactly
                # this point's content-addressed key; anything else
                # (a forged or foreign record) simply re-runs.
                if (record is None or key == "unserializable"
                        or record.get("key") != key):
                    survivors.append(outcome)
                    continue
                outcome.result = SimulationResult.from_dict(record["result"])
                outcome.resumed = True
                outcome.cached = bool(record.get("cached"))
                metrics.resumed += 1
                self._note_done(outcome, metrics, started)
            self.journal.resume_marker(fingerprint, replayed=metrics.resumed,
                                       remaining=len(survivors))
            return survivors
        self.journal.begin(fingerprint, base_key, len(outcomes),
                           record_timeline)
        return outcomes

    def _journal_dispatch(self, outcome: SweepOutcome) -> None:
        """Write-ahead record: *outcome* is about to reach a worker."""
        if self.journal is not None and self._journal_keys is not None:
            self.journal.dispatch(outcome.index,
                                  self._journal_keys[outcome.index],
                                  outcome.label)

    def _journal_close(self, metrics: SweepMetrics) -> None:
        if self.journal is not None:
            self.journal.end(metrics.detail())
            self.journal.close()

    def _mark_interrupted(self, outcomes: List[SweepOutcome],
                          metrics: SweepMetrics) -> None:
        """Ctrl-C landed mid-sweep: give every unfinished point a
        terminal ``Interrupted`` record (journaled, so a later resume
        re-dispatches exactly these)."""
        for outcome in outcomes:
            if outcome.result is not None or outcome.error is not None:
                continue
            outcome.error = SweepError(
                kind="Interrupted",
                message="sweep interrupted before this point completed",
            )
            metrics.errors += 1
            metrics.interrupted += 1
            if self.journal is not None and self._journal_keys is not None:
                self.journal.interrupt(outcome.index)

    def _verify_points(self, trace: Trace, points: List[SweepOutcome],
                       metrics: SweepMetrics,
                       started: float) -> List[SweepOutcome]:
        """Pre-dispatch deep verification, deduplicated by plan key.

        Points differing only in execute-time parameters share an
        extrapolation plan, so a 16-point network sweep verifies one
        graph, not sixteen; the built plans land in the plan cache and
        the sweep itself reuses them.  A config whose graph can't even
        be built is passed through — it will fail identically, with a
        proper error record, when its point runs.
        """
        from repro.analysis.verifier import verify_plan

        verified: Dict[str, object] = {}
        survivors: List[SweepOutcome] = []
        for outcome in points:
            report = None
            try:
                point_trace, op_time = self._point_work(trace, outcome.config)
                sim = TrioSim(point_trace, outcome.config,
                              record_timeline=False, op_time=op_time)
                key = sim.plan_key()
                report = verified.get(key)
                if report is None:
                    if self.plan_cache is not None:
                        plan, source = self.plan_cache.get_or_build(
                            key, sim.build_plan)
                        if source == "built":
                            metrics.plan_builds += 1
                    else:
                        plan = sim.build_plan()
                    report = verify_plan(plan, config=outcome.config)
                    verified[key] = report
            except Exception:
                report = None
            if report is not None and report.has_errors:
                outcome.error = SweepError(
                    kind="VerifyError",
                    message="; ".join(str(f) for f in report.errors),
                    traceback=render_text(report, source="verify"),
                )
                self._note_done(outcome, metrics, started)
            else:
                survivors.append(outcome)
        return survivors

    def _note_done(self, outcome: SweepOutcome, metrics: SweepMetrics,
                   started: float) -> None:
        metrics.completed += 1
        if outcome.error is not None:
            metrics.errors += 1
            if outcome.error.kind == _worker.TIMEOUT_KIND:
                metrics.timeouts += 1
        elif outcome.resumed:
            # Replayed work: counted in metrics.resumed (by the journal
            # open), never as fresh events or plan traffic.
            pass
        elif not outcome.cached and outcome.result is not None:
            metrics.fresh_events += outcome.result.events
            source = outcome.result.profile.get("plan_source")
            if source == "built":
                metrics.plan_builds += 1
            elif source in ("memory", "disk"):
                metrics.plan_cache_hits += 1
        if (self.journal is not None and self._journal_keys is not None
                and not outcome.resumed):
            key = self._journal_keys[outcome.index]
            if outcome.result is not None:
                self.journal.done(outcome.index, key,
                                  outcome.result.to_dict(),
                                  cached=outcome.cached)
            elif outcome.error is not None:
                self.journal.fail(outcome.index, key,
                                  outcome.error.to_dict(),
                                  outcome.error.kind)
        metrics.elapsed = _wall.perf_counter() - started
        self.invoke_hooks(
            HookCtx(HOOK_SWEEP_POINT, 0.0, item=outcome,
                    detail=metrics.detail())
        )

    def _finish(self, outcome: SweepOutcome, payload: dict,
                record_timeline: bool, base_key: str) -> None:
        """Apply a worker reply to its outcome and cache fresh results."""
        if payload["ok"]:
            outcome.result = SimulationResult.from_dict(payload["result"])
            outcome.sanitizer_findings = payload.get("sanitizer", [])
            self._store(outcome, record_timeline, base_key)
        else:
            outcome.error = SweepError.from_dict(payload["error"])

    def _store(self, outcome: SweepOutcome, record_timeline: bool,
               base_key: str) -> None:
        """Cache a freshly simulated result (serializable configs only)."""
        if self.cache is not None and outcome.config.is_serializable:
            key = self.cache.point_key(base_key, outcome.config,
                                       record_timeline)
            self.cache.store(key, outcome.result)

    def _hard_deadline_default(self) -> Optional[float]:
        """Sweep-wide hard budget: ``deadline_hard`` wins over the
        legacy ``timeout`` alias."""
        return self.deadline_hard if self.deadline_hard is not None \
            else self.timeout

    def _hard_deadline(self, config: SimulationConfig) -> Optional[float]:
        """Effective hard budget for one point (config overrides sweep)."""
        if config.deadline_hard is not None:
            return config.deadline_hard
        return self._hard_deadline_default()

    def _soft_deadline(self, config: SimulationConfig) -> Optional[float]:
        """Effective soft budget for one point (config overrides sweep)."""
        if config.deadline_soft is not None:
            return config.deadline_soft
        return self.deadline_soft

    def _point_payload(self, trace: Trace, outcome: SweepOutcome,
                       record_timeline: bool) -> dict:
        return {
            "trace_key": self._gpu_key(trace, outcome.config),
            "config": outcome.config.to_dict(),
            "record_timeline": record_timeline,
            "timeout": self._hard_deadline(outcome.config),
            "deadline_soft": self._soft_deadline(outcome.config),
            "sanitize": self.sanitize,
            # The static tier already ran once per distinct plan in
            # _verify_points; workers only need the race detectors.
            "verify": "races" if self.verify else False,
        }

    def _breaker_record(self, outcome: SweepOutcome,
                        metrics: SweepMetrics) -> None:
        """Feed one dispatched point's disposition to the breaker."""
        if self.breaker is None:
            return
        if (outcome.error is not None
                and outcome.error.kind in CircuitBreaker.FAILURE_KINDS):
            if self.breaker.record_failure(outcome.error.kind):
                metrics.circuit_trips += 1
        elif outcome.result is not None:
            self.breaker.record_success()

    def _admit(self, outcome: SweepOutcome, metrics: SweepMetrics,
               started: float) -> bool:
        """Breaker admission for one point; False = failed fast.

        A rejected point gets a terminal ``CircuitOpen`` error naming
        the failure kind that tripped the breaker, so a journal resume
        re-dispatches it once the substrate recovers.
        """
        if self.breaker is None or self.breaker.admit():
            return True
        metrics.circuit_skips += 1
        culprit = self.breaker.last_failure_kind or "failures"
        outcome.error = SweepError(
            kind="CircuitOpen",
            message=(f"dispatch circuit is open after repeated {culprit}; "
                     "point failed fast without reaching a worker"),
        )
        self._note_done(outcome, metrics, started)
        return False

    def _run_parallel(self, trace: Trace, points: List[SweepOutcome],
                      workers: int, record_timeline: bool,
                      metrics: SweepMetrics, started: float,
                      base_key: str) -> None:
        prepared, unprepared = self._prepare_traces(trace, points)
        if unprepared:
            # Simulating these in this process fails the same way, and
            # records each point's error exactly as the in-process path.
            self._run_inproc(trace, unprepared, record_timeline, metrics,
                             started, base_key)
            failed = {o.index for o in unprepared}
            points = [o for o in points if o.index not in failed]
            if not points:
                return
        # Packed once per sweep: framed protocol-5 with the numeric
        # trace columns as out-of-band buffers.  Every pool (re)build
        # re-ships this same blob to each worker.
        trace_payload = transport.pack_traces({
            gpu_key: scaled.to_dict() for gpu_key, scaled in prepared.items()
        })
        self._prepare_plans(trace, points, metrics)
        crashed = self._parallel_wave(trace, points, workers, trace_payload,
                                      record_timeline, metrics, started,
                                      base_key)
        if crashed:
            self._retry_crashed(trace, crashed, trace_payload,
                                record_timeline, metrics, started, base_key)

    def _new_pool(self, workers: int,
                  trace_payload: bytes) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker.init_worker,
            initargs=(trace_payload, self._plan_mode()),
        )

    @staticmethod
    def _chunk_size(n_points: int, workers: int) -> int:
        """Points per pool submission.

        Single-point futures until the sweep is big enough that at least
        four chunks per worker remain after chunking, then chunks grow
        up to 8 points — bounding both the per-future overhead and the
        blast radius of a chunk-killing crash.
        """
        return max(1, min(8, n_points // (workers * 4)))

    def _parallel_wave(self, trace: Trace, points: List[SweepOutcome],
                       workers: int, trace_payload: bytes,
                       record_timeline: bool, metrics: SweepMetrics,
                       started: float, base_key: str) -> List[SweepOutcome]:
        """Fan *points* over a pool; returns the unattributed crash victims.

        Dispatch is incremental — at most ``2 * workers`` futures are in
        flight — so every submission passes the circuit breaker with
        current information and is write-ahead journaled just before it
        reaches the pool.  Points travel in chunks of
        :meth:`_chunk_size` per ``run_chunk`` future (the worker runs
        its points sequentially, each under its own deadline), which
        amortizes the submit/result round-trip on large sweeps.  When
        the breaker is open or half-open with work still in flight,
        dispatch pauses rather than failing the queue fast, so a
        successful half-open probe closes the breaker and the remaining
        points dispatch normally (the same recovery semantics as the
        in-process path).  A worker death breaks only the in-flight
        window: those points are collected for the isolated retry pass,
        the pool is rebuilt, and the undispatched queue continues on the
        fresh pool.  Ctrl-C cancels the queue, waits out the running
        points, and re-raises — no worker processes outlive the sweep.
        """
        crashed: List[SweepOutcome] = []
        queue = deque(points)
        window = max(1, workers * 2)
        chunk_size = self._chunk_size(len(points), workers)
        pool = self._new_pool(workers, trace_payload)
        futures: Dict[object, List[SweepOutcome]] = {}
        try:
            while queue or futures:
                while queue and len(futures) < window:
                    batch: List[SweepOutcome] = []
                    while queue and len(batch) < chunk_size:
                        if (self.breaker is not None
                                and self.breaker.state != "closed"
                                and (futures or batch)):
                            # The breaker tripped (or a half-open probe
                            # is flying) while work is in flight.
                            # Draining the queue through _admit now
                            # would fail every remaining point fast
                            # before the probe's result can close the
                            # breaker, making recovery unreachable — so
                            # stop dispatching and wait for the
                            # in-flight verdicts instead.  Once the
                            # window drains, _admit resumes: skips count
                            # up to the next probe, and a probe that
                            # succeeds re-closes the breaker for the
                            # rest of the queue.  (Checked per point,
                            # not per batch: an admitted probe must not
                            # drag fail-fast victims along in its own
                            # chunk.)
                            break
                        outcome = queue.popleft()
                        if not self._admit(outcome, metrics, started):
                            continue
                        self._journal_dispatch(outcome)
                        batch.append(outcome)
                    if not batch:
                        break  # breaker paused or fast-failed the queue
                    try:
                        future = pool.submit(_worker.run_chunk, [
                            self._point_payload(trace, o, record_timeline)
                            for o in batch])
                    except BrokenProcessPool:
                        # The pool broke before the wait loop saw it;
                        # these points are crash-window victims too.
                        self._note_crashed(batch, crashed, metrics)
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = self._new_pool(workers, trace_payload)
                        continue
                    futures[future] = batch
                if not futures:
                    continue  # breaker fast-failed the whole window
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    batch = futures.pop(future)
                    if isinstance(future.exception(), BrokenProcessPool):
                        # A worker died.  Every in-flight future on the
                        # pool fails with it, so which point killed the
                        # worker is unknown here — the isolated retry
                        # pass attributes the crash point by point.
                        broken = True
                        self._note_crashed(batch, crashed, metrics)
                    else:
                        self._settle(future, batch, record_timeline,
                                     base_key, metrics, started)
                if broken:
                    # The rest of the window died with the pool; sort
                    # the stragglers (a future may still have finished
                    # cleanly in the meantime) and rebuild.
                    for future, batch in futures.items():
                        if future.done() and future.exception() is None:
                            self._settle(future, batch, record_timeline,
                                         base_key, metrics, started)
                        else:
                            self._note_crashed(batch, crashed, metrics)
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(workers, trace_payload)
        except KeyboardInterrupt:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return crashed

    def _settle(self, future, batch: List[SweepOutcome],
                record_timeline: bool, base_key: str,
                metrics: SweepMetrics, started: float) -> None:
        """Apply a finished (not pool-broken) future to its chunk.

        ``run_chunk`` replies come back one per point in batch order; a
        future that raised fails every point of its chunk with that
        exception.
        """
        exc = future.exception()
        if exc is None:
            replies = future.result()
        else:
            error = {"kind": type(exc).__name__, "message": str(exc)}
            replies = [{"ok": False, "error": error}] * len(batch)
        for outcome, reply in zip(batch, replies):
            self._finish(outcome, reply, record_timeline, base_key)
            self._breaker_record(outcome, metrics)
            self._note_done(outcome, metrics, started)

    def _note_crashed(self, batch: List[SweepOutcome],
                      crashed: List[SweepOutcome],
                      metrics: SweepMetrics) -> None:
        """Collect *batch* for the isolated retry pass; each point
        counts as one ``WorkerCrashed`` failure with the breaker."""
        crashed.extend(batch)
        if self.breaker is not None:
            for _ in batch:
                if self.breaker.record_failure("WorkerCrashed"):
                    metrics.circuit_trips += 1

    def _retry_crashed(self, trace: Trace, crashed: List[SweepOutcome],
                       trace_payload: bytes, record_timeline: bool,
                       metrics: SweepMetrics, started: float,
                       base_key: str) -> None:
        """Re-execute crash victims one at a time, each on a fresh
        single-worker pool, with seeded bounded exponential backoff —
        so a repeat crash is attributable to exactly one point.  A point
        that kills every isolated worker gets one last
        graceful-degradation rung: an in-process run with chaos specs
        disarmed (no pool to crash); only if that also fails is the
        point declared ``WorkerCrashed``."""
        rng = random.Random(self.retry_seed)
        for outcome in sorted(crashed, key=lambda o: o.index):
            for attempt in range(self.MAX_CRASH_RETRIES):
                _wall.sleep(self._backoff_delay(rng, attempt))
                outcome.retries += 1
                metrics.retries += 1
                if self._isolated_attempt(trace, outcome, trace_payload,
                                          record_timeline, base_key):
                    break
            else:
                # Last rung: no pool means nothing left to crash.  If
                # the failures were pool infrastructure (a poisoned
                # worker image, fork pressure, chaos injection) the
                # point completes here; chaos specs stay disarmed, so a
                # config that genuinely kills its host raises instead
                # of taking the sweep down.
                try:
                    self._simulate_in_parent(trace, outcome,
                                             record_timeline, base_key)
                except Exception:
                    outcome.result = None
                    metrics.worker_crashes += 1
                    outcome.error = SweepError(
                        kind="WorkerCrashed",
                        message=f"worker process died simulating this point "
                                f"{outcome.retries} time(s) in isolation "
                                f"(after crashing a shared pool), and the "
                                f"in-process rescue run also failed",
                    )
                else:
                    outcome.degraded = True
                    metrics.degraded_recoveries += 1
            self._note_done(outcome, metrics, started)

    def _backoff_delay(self, rng: random.Random, attempt: int) -> float:
        """Jittered exponential backoff, capped at :attr:`MAX_BACKOFF`."""
        return min(self.MAX_BACKOFF,
                   self.retry_backoff * (2 ** attempt) * (0.5 + rng.random()))

    def _isolated_attempt(self, trace: Trace, outcome: SweepOutcome,
                          trace_payload: bytes, record_timeline: bool,
                          base_key: str) -> bool:
        """One retry on a dedicated pool; False when the worker died."""
        with self._new_pool(1, trace_payload) as pool:
            future = pool.submit(_worker.run_chunk, [
                self._point_payload(trace, outcome, record_timeline)])
            try:
                (payload,) = future.result()
            except BrokenProcessPool:
                return False
        self._finish(outcome, payload, record_timeline, base_key)
        return True

    def _simulate_in_parent(self, trace: Trace, outcome: SweepOutcome,
                            record_timeline: bool, base_key: str) -> None:
        """Simulate one point in this process and cache its result.

        Chaos specs stay disarmed (``simulate_point``'s default), so a
        ``chaos_kill_at`` point raises here instead of killing the
        sweep.  Any failure propagates; the caller decides what it
        means for the point.
        """
        point_trace, op_time = self._point_work(trace, outcome.config)
        outcome.result = _worker.simulate_point(
            point_trace, outcome.config, record_timeline,
            self._hard_deadline(outcome.config), op_time=op_time,
            sanitize=self.sanitize,
            sanitizer_sink=outcome.sanitizer_findings,
            plan_cache=self.plan_cache,
            verify="races" if self.verify else False,
            deadline_soft=self._soft_deadline(outcome.config),
        )
        self._store(outcome, record_timeline, base_key)

    def _run_inproc(self, trace: Trace, points: List[SweepOutcome],
                    record_timeline: bool, metrics: SweepMetrics,
                    started: float, base_key: str) -> None:
        for outcome in points:
            if not self._admit(outcome, metrics, started):
                continue
            self._journal_dispatch(outcome)
            try:
                self._simulate_in_parent(trace, outcome, record_timeline,
                                         base_key)
            except Exception as exc:
                # error_record normalizes deadline flavours to the
                # taxonomy kind ("PointTimeout") and keeps any
                # partial-progress detail the exception carries.
                outcome.error = SweepError.from_dict(
                    _worker.error_record(exc))
            self._breaker_record(outcome, metrics)
            self._note_done(outcome, metrics, started)
