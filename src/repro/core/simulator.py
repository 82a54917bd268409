"""The TrioSim facade.

Wires together the pieces the paper's Figure 2 shows: the input trace, the
multi-GPU trace extrapolator, the linear-regression performance model, and
the lightweight network model, all running on the event-driven engine.

Typical use::

    from repro import TrioSim, SimulationConfig, Tracer, get_model, get_gpu

    tracer = Tracer(get_gpu("A100"))
    trace = tracer.trace(get_model("resnet50"), batch_size=128)
    config = SimulationConfig(parallelism="ddp", num_gpus=4,
                              topology="ring", link_bandwidth=234e9)
    result = TrioSim(trace, config).run()
    print(result.summary())
"""

from __future__ import annotations

import time as _wall
from typing import Dict, Optional

import networkx as nx

from repro.core.config import SimulationConfig
from repro.core.fold import fold_decision, steady
from repro.core.plan import ExtrapolationPlan, PlanBuilder, PlanCache, plan_key
from repro.core.profiler import PipelineProfiler
from repro.core.results import SimulationResult, Timeline, TimelineRecorder
from repro.core.taskgraph import TaskGraphSimulator
from repro.core.timeline import shift_records
from repro.engine.engine import Engine
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.hybrid import HybridExtrapolator
from repro.extrapolator.data_parallel import (
    DataParallelExtrapolator,
    DistributedDataParallelExtrapolator,
)
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.extrapolator.single import SingleGPUExtrapolator
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator
from repro.network.flow import FlowNetwork
from repro.network.topology import TOPOLOGIES, TopologySpec, build_topology_cached
from repro.perfmodel.scaling import CrossGPUScaler
from repro.trace.trace import Trace


def iteration_times_from_fences(fence_end_times, total: float):
    """Per-iteration durations from fence boundaries, clamped to *total*.

    A faulted run's stall can leave the last fence's recorded end time
    past the simulation's finish time; clamping keeps every boundary
    inside ``[0, total]`` so iteration durations never go negative and
    always sum to *total*.
    """
    boundaries = [0.0]
    boundaries.extend(min(t, total) for t in fence_end_times)
    boundaries.append(total)
    return [boundaries[i + 1] - boundaries[i]
            for i in range(len(boundaries) - 1)]


class TrioSim:
    """Trace-driven multi-GPU DNN training simulator.

    Parameters
    ----------
    trace:
        A single-GPU operator trace (see :class:`~repro.trace.Tracer`).
    config:
        What to simulate (see :class:`~repro.core.config.SimulationConfig`).
    record_timeline:
        Collect per-task timeline records (small overhead; on by default).
    hooks:
        Extra observers attached to the task-graph simulator — e.g. a
        :class:`repro.engine.Monitor` for AkitaRTM-style live progress.
    op_time:
        Optional pre-built :class:`~repro.extrapolator.optime.OpTimeModel`.
        The sweep service fits the (potentially expensive) performance
        model once per ``(trace, target GPU)`` and shares it across every
        sweep point; it must have been built on the *prepared* (already
        cross-GPU-rescaled) trace.
    sanitize:
        Statically check the extrapolated task graph before any event is
        scheduled (raising :class:`repro.analysis.AnalysisError` on
        dependency cycles or bad transfer endpoints) and run the runtime
        sanitizers during the simulation; findings land in
        :attr:`sanitizer_report`.
    allow_chaos:
        Permit a ``chaos_kill_at`` in ``config.faults`` to arm (the
        process then SIGKILLs itself mid-run).  Only the sweep service's
        sacrificial worker processes pass ``True``; everywhere else such
        a spec raises :class:`repro.faults.ChaosError`.
    plan:
        Optional pre-built :class:`~repro.core.plan.ExtrapolationPlan` to
        execute instead of running the extrapolator.  Its key must match
        this (trace, config) pair — checked by lint rule PL001, raising
        :class:`repro.analysis.AnalysisError` on mismatch.
    plan_cache:
        Optional :class:`~repro.core.plan.PlanCache`.  :meth:`run` looks
        the plan up by :meth:`plan_key` and builds (and caches) it only
        on a miss, so runs differing only in network/topology/fault
        parameters extrapolate once.
    verify:
        Run the two-tier verifier around the simulation: the deep static
        graph verifier (``DV`` rules — cycles, dead tasks, mismatched
        collectives, memory-infeasible schedules) over the fully
        instantiated graph before any event is scheduled, raising
        :class:`repro.analysis.AnalysisError` on errors, and the
        determinism race detectors (``RC`` rules) during the run.
        Findings land in :attr:`verify_report`; the dispatch-order
        digest in :attr:`verify_digest`.  Pass the string ``"races"``
        to skip the static tier (when the caller verified the plan
        already) and run only the race detectors.
    """

    def __init__(self, trace: Trace, config: SimulationConfig,
                 record_timeline: bool = True, hooks=(), op_time=None,
                 sanitize: bool = False, allow_chaos: bool = False,
                 plan: ExtrapolationPlan = None,
                 plan_cache: PlanCache = None, verify: bool = False,
                 heartbeat=None, heartbeat_every: int = 4096,
                 profile_engine: bool = False):
        #: When true the engine runs its instrumented loop and the
        #: result's profile gains ``engine.queue_ops`` /
        #: ``engine.handler`` / ``engine.hook_overhead`` sub-phases —
        #: where exact-path time actually goes.  Dispatch order is
        #: unchanged; the instrumentation costs ~2 clock reads/event.
        self.profile_engine = profile_engine
        self._engine_profile: Optional[Dict[str, float]] = \
            {} if profile_engine else None
        self.config = config
        self.record_timeline = record_timeline
        self.hooks = tuple(hooks)
        #: Optional ``(engine) -> None`` callback fired every
        #: *heartbeat_every* dispatched events — the sweep service's
        #: cooperative soft-deadline check.  Unlike hooks, a heartbeat
        #: never affects fold eligibility: it observes wall clock, not
        #: simulation state.
        self.heartbeat = heartbeat
        self.heartbeat_every = heartbeat_every
        self.sanitize = sanitize
        self.allow_chaos = allow_chaos
        self.plan = plan
        self.plan_cache = plan_cache
        self.verify = verify
        #: Runtime sanitizer findings of the last :meth:`run` (a
        #: :class:`repro.analysis.Report`), or ``None`` when off.
        self.sanitizer_report = None
        #: Verifier findings of the last :meth:`run` — static (``DV``)
        #: warnings plus dynamic (``RC``) races — or ``None`` when off.
        self.verify_report = None
        #: Stable fold of the run's dispatched ``(time, seq)`` schedule;
        #: equal digests certify two runs dispatched identically.
        self.verify_digest = None
        #: Injection counters of the last :meth:`run` (see
        #: :meth:`repro.faults.FaultInjector.stats`), or ``None`` when the
        #: config carries no (non-empty) fault spec.
        self.fault_stats = None
        _prep_started = _wall.perf_counter()
        self.trace = self._prepare_trace(trace)
        if op_time is not None and op_time.trace is not self.trace:
            raise ValueError(
                "op_time was fitted on a different trace; build it on the "
                "prepared (cross-GPU-rescaled) trace"
            )
        self.op_time = op_time or OpTimeModel(self.trace, self._build_perf_model())
        self._trace_prep_wall = _wall.perf_counter() - _prep_started

    def _build_perf_model(self):
        if self.config.perf_model == "piecewise":
            from repro.perfmodel.piecewise import PiecewiseThroughputModel

            return PiecewiseThroughputModel.fit(self.trace)
        return None  # lazy Li's Model default

    # ------------------------------------------------------------------
    # Trace preparation (cross-GPU rescaling)
    # ------------------------------------------------------------------
    def _prepare_trace(self, trace: Trace) -> Trace:
        target = self.config.gpu
        if target is not None and target.upper() != trace.gpu_name.upper():
            scaler = CrossGPUScaler.between(trace.gpu_name, target)
            return scaler.convert_trace(trace)
        return trace

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _batch_scale(self) -> float:
        if self.config.batch_size is None:
            return 1.0
        return self.config.batch_size / self.trace.batch_size

    def _build_network(self, engine: Engine):
        if self.config.network_factory is not None:
            return self.config.network_factory(engine, self.config)
        cfg = self.config
        # "shortest" maps to no strategy object at all — the exact legacy
        # routing codepath, so default configs stay bit-identical.
        routing = cfg.routing if cfg.routing != "shortest" else None
        topology = cfg.topology
        if not isinstance(topology, nx.Graph):
            if isinstance(topology, TopologySpec):
                name, params = topology.name, dict(topology.params)
            else:
                name, params = topology, {}
            # Routing strategies engage only on topologies registered as
            # multipath (leaf_spine, fat_tree_clos, ...).  Single-path
            # topologies model deterministic dimension-order-style routes
            # — even where a mesh has several equal-cost lattice paths —
            # so every strategy stays bit-identical to ``shortest`` there.
            # Prebuilt graphs (below) are the explicit opt-in escape hatch.
            if routing is not None and name in TOPOLOGIES \
                    and not TOPOLOGIES.get(name).multipath:
                routing = None
            if cfg.oversubscription is not None:
                if not TOPOLOGIES.supports_param(name, "oversubscription"):
                    raise ValueError(
                        f"topology {name!r} does not take an "
                        "oversubscription parameter (only fabrics with "
                        "uplink tiers do, e.g. leaf_spine)"
                    )
                params["oversubscription"] = cfg.oversubscription
            # Named topologies come from the process-level cache — built
            # (and host-augmented) once per parameter key, shared across
            # sweep points.  Fault injection mutates link attributes
            # (``set_link_capacity``), so faulted runs get a copy.
            host = ((cfg.host_bandwidth, cfg.host_latency)
                    if cfg.include_host_transfers else None)
            topology = build_topology_cached(
                name, cfg.num_gpus,
                cfg.link_bandwidth, cfg.link_latency, host=host, **params,
            )
            if cfg.faults is not None and not cfg.faults.is_empty:
                topology = topology.copy()
            return FlowNetwork(engine, topology, routing=routing,
                               routing_seed=cfg.routing_seed)
        if cfg.include_host_transfers:
            topology = topology.copy()
            topology.add_node("host")
            for i in range(cfg.num_gpus):
                topology.add_edge(
                    "host", f"gpu{i}",
                    bandwidth=cfg.host_bandwidth,
                    latency=cfg.host_latency,
                )
        return FlowNetwork(engine, topology, routing=routing,
                           routing_seed=cfg.routing_seed)

    def _build_extrapolator(self) -> Extrapolator:
        cfg = self.config
        scale = self._batch_scale()
        if cfg.parallelism == "single":
            return SingleGPUExtrapolator(self.trace, self.op_time, batch_scale=scale)
        if cfg.parallelism == "dp":
            return DataParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale
            )
        if cfg.parallelism == "ddp":
            groups = None
            if cfg.collective_scheme == "hierarchical":
                from repro.network.topology import node_groups

                groups = node_groups(
                    cfg.num_gpus // cfg.gpus_per_node, cfg.gpus_per_node
                )
            return DistributedDataParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                bucket_bytes=cfg.bucket_bytes, overlap=cfg.overlap,
                collective_scheme=cfg.collective_scheme, node_groups=groups,
            )
        if cfg.parallelism == "tp":
            return TensorParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                scheme=cfg.tp_scheme,
            )
        if cfg.parallelism == "pp":
            return PipelineExtrapolator(
                self.trace, self.op_time, cfg.num_gpus,
                chunks=cfg.chunks, batch_scale=scale,
                schedule=cfg.pp_schedule,
            )
        if cfg.parallelism == "fsdp":
            from repro.extrapolator.fsdp import FSDPExtrapolator

            return FSDPExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                unit_bytes=cfg.bucket_bytes,
            )
        if cfg.parallelism == "hybrid":
            return HybridExtrapolator(
                self.trace, self.op_time, cfg.dp_degree,
                cfg.num_gpus // cfg.dp_degree,
                chunks=cfg.chunks, batch_scale=scale,
            )
        raise ValueError(f"unknown parallelism {cfg.parallelism!r}")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_key(self) -> str:
        """Content key of this run's extrapolation plan (see
        :func:`repro.core.plan.plan_key`): prepared-trace digest plus the
        iteration-invariant parallelism knobs, excluding every network /
        topology / fault / iteration parameter."""
        return plan_key(self.trace, self.config)

    def build_plan(self) -> ExtrapolationPlan:
        """Run the extrapolator once, recording into a reusable plan."""
        builder = PlanBuilder()
        extrapolator = self._build_extrapolator()
        extrapolator.fetch_inputs = self.config.include_host_transfers
        extrapolator.build(builder)
        return builder.finish(self.plan_key())

    def _resolve_plan(self, profiler: PipelineProfiler) -> ExtrapolationPlan:
        if self.plan is not None:
            from repro.analysis import AnalysisError, lint_plan

            report = lint_plan(self.plan, self.config, self.trace,
                               prepared=True)
            if report.has_errors:
                raise AnalysisError(
                    report, "supplied plan does not match this config")
            profiler.plan_source = "supplied"
            return self.plan
        if self.plan_cache is not None:
            plan, source = self.plan_cache.get_or_build(
                self.plan_key(), self.build_plan)
            profiler.plan_source = source
            if source == "built":
                profiler.count("extrapolator_builds")
            return plan
        profiler.plan_source = "built"
        profiler.count("extrapolator_builds")
        return self.build_plan()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the configured training iterations and return the result.

        Multi-iteration runs that qualify (see
        :func:`repro.core.fold.fold_decision` and ``docs/performance.md``)
        take the steady-state folding path: ``fold_warmup`` iterations
        are simulated event-by-event and the rest are extended
        algebraically.  Everything else — single iterations, faulted or
        observed runs, ``fold=False`` — takes the exact event-by-event
        path, bit-identically to builds that predate folding.
        """
        started = _wall.perf_counter()
        profiler = PipelineProfiler()
        profiler.add_phase("trace_prep", self._trace_prep_wall)
        with profiler.phase("plan"):
            plan = self._resolve_plan(profiler)
        with profiler.phase("engine"):
            engine = Engine()
            if self._engine_profile is not None:
                engine.set_profile(self._engine_profile)
            if self.heartbeat is not None:
                engine.set_heartbeat(self.heartbeat, self.heartbeat_every)
            network = self._build_network(engine)
            sim = TaskGraphSimulator(engine, network)
        if self.config.gpu_slowdowns:
            sim.compute_scale.update(self.config.gpu_slowdowns)
        recorder = TimelineRecorder() if self.record_timeline else None
        if recorder is not None:
            sim.accept_hook(recorder)
        for hook in self.hooks:
            sim.accept_hook(hook)
        decision = fold_decision(self.config, network=network,
                                 hooks=self.hooks, sanitize=self.sanitize,
                                 verify=bool(self.verify))
        if decision.eligible:
            return self._run_folded(profiler, plan, engine, network, sim,
                                    recorder, started)
        if self.config.iterations > 1:
            profiler.fold_status = decision.status
        return self._run_exact(profiler, plan, engine, network, sim,
                               recorder, started)

    def _run_exact(self, profiler: PipelineProfiler, plan: ExtrapolationPlan,
                   engine: Engine, network, sim: TaskGraphSimulator,
                   recorder, started: float) -> SimulationResult:
        """The exact event-by-event path (every iteration fully simulated)."""
        with profiler.phase("instancing"):
            plan.instantiate_iterations_soa(sim, self.config.iterations)
        profiler.count("plan_instances", self.config.iterations)
        profiler.count("plan_tasks", len(plan))
        injector = None
        faults = self.config.faults
        if faults is not None and not faults.is_empty:
            from repro.analysis import AnalysisError
            from repro.analysis.linter import lint_fault_targets
            from repro.faults import FaultInjector

            found = lint_fault_targets(
                self.config, getattr(network, "topology", None))
            if found.has_errors:
                raise AnalysisError(found, "fault spec does not match the "
                                           "simulated topology")
            injector = FaultInjector(engine, sim, network, faults,
                                     allow_chaos=self.allow_chaos).install()
        suite = None
        if self.sanitize:
            from repro.analysis import AnalysisError, SanitizerSuite, lint_taskgraph

            pre = lint_taskgraph(sim, topology=getattr(network, "topology", None))
            if pre.has_errors:
                raise AnalysisError(pre, "task graph failed pre-run analysis")
            suite = SanitizerSuite().attach(engine=engine, network=network,
                                            injector=injector, sim=sim)
        races = None
        if self.verify:
            from repro.analysis import AnalysisError, Report
            from repro.analysis.verifier import (
                RaceDetectorSuite,
                verify_taskgraph,
            )

            if self.verify == "races":
                # Tier B only: the caller (e.g. the sweep runner, which
                # verifies each distinct plan once pre-dispatch) already
                # ran the static pass.
                self.verify_report = Report()
            else:
                with profiler.phase("verify"):
                    pre = verify_taskgraph(
                        sim, topology=getattr(network, "topology", None),
                        config=self.config)
                if pre.has_errors:
                    raise AnalysisError(pre, "task graph failed verification")
                self.verify_report = pre
            races = RaceDetectorSuite().attach(engine=engine, sim=sim)
        with profiler.phase("engine"):
            total = sim.run()
        if injector is not None:
            self.fault_stats = injector.stats()
        if suite is not None:
            self.sanitizer_report = suite.finalize(engine)
        if races is not None:
            self.verify_report.merge(races.finalize())
            self.verify_digest = races.order_digest
        iteration_times = []
        if self.config.iterations > 1:
            iteration_times = iteration_times_from_fences(
                [f.end_time for f in sim.fences], total)
        return self._assemble(profiler, engine, network, sim, recorder,
                              started, total, iteration_times)

    # ------------------------------------------------------------------
    # Steady-state iteration folding
    # ------------------------------------------------------------------
    def _run_folded(self, profiler: PipelineProfiler,
                    plan: ExtrapolationPlan, engine: Engine, network,
                    sim: TaskGraphSimulator, recorder,
                    started: float) -> SimulationResult:
        """Warm up event-by-event, then extend the tail algebraically.

        Each warm-up iteration is instanced and drained in its own
        :meth:`TaskGraphSimulator.run` call — timing-identical to
        upfront instancing, because the inter-iteration fence already
        forces a full drain between iterations.  If the last two warm-up
        durations agree within ``fold_tolerance`` the remaining
        iterations are *folded*: boundaries extend by repeated addition
        of the steady-state period (so iteration times telescope to the
        total exactly), additive counters extend by the last warm-up
        iteration's delta, and the timeline replicates the last warm-up
        slice shifted by whole periods.  Otherwise the remaining
        iterations are simulated exactly (``fold_status: not-steady``).
        """
        cfg = self.config
        warmup = cfg.fold_warmup
        boundaries = []   # end time of each simulated iteration
        durations = []
        before = None
        for index in range(warmup):
            with profiler.phase("instancing"):
                plan.instantiate_iterations_soa(sim, 1, start=index)
            if index == warmup - 1:
                before = self._fold_snapshot(sim, network, recorder)
            with profiler.phase("engine"):
                end = sim.run()
            durations.append(end - (boundaries[-1] if boundaries else 0.0))
            boundaries.append(end)
        profiler.count("plan_instances", warmup)
        profiler.count("plan_tasks", len(plan))
        with profiler.phase("fold_detect"):
            # fold_warmup=1 has a single duration and nothing to compare:
            # the steadiness check is skipped by construction (documented
            # as the maximum-speed escape hatch in docs/performance.md).
            settled = warmup < 2 or steady(durations[-2], durations[-1],
                                           cfg.fold_tolerance)
        folded = cfg.iterations - warmup
        if not settled:
            profiler.fold_status = "not-steady"
            with profiler.phase("instancing"):
                plan.instantiate_iterations_soa(sim, folded, start=warmup)
            profiler.count("plan_instances", folded)
            with profiler.phase("engine"):
                total = sim.run()
            iteration_times = iteration_times_from_fences(
                [f.end_time for f in sim.fences], total)
            return self._assemble(profiler, engine, network, sim, recorder,
                                  started, total, iteration_times)
        profiler.fold_status = "folded"
        profiler.count("iterations_folded", folded)
        after = self._fold_snapshot(sim, network, recorder)
        with profiler.phase("fold_extend"):
            period = durations[-1]
            base = boundaries[-1]
            for _ in range(folded):
                base = base + period  # repeated addition: times telescope
                boundaries.append(base)
            total = boundaries[-1]
            iteration_times = [boundaries[0]]
            iteration_times.extend(boundaries[i + 1] - boundaries[i]
                                   for i in range(len(boundaries) - 1))
            self._fold_extend(sim, network, recorder, before, after,
                              boundaries, warmup, folded)
        return self._assemble(profiler, engine, network, sim, recorder,
                              started, total, iteration_times)

    @staticmethod
    def _fold_snapshot(sim: TaskGraphSimulator, network, recorder) -> dict:
        """Cumulative counters before/after the last warm-up iteration."""
        return {
            "busy": {g: sim.gpu_busy_time(g) for g in sim.gpus_seen},
            "comm_time": sim.comm_task_time,
            "comm_bytes": sim.comm_bytes,
            "records": len(recorder.records) if recorder is not None else 0,
            "network": network.stats_snapshot(),
        }

    @staticmethod
    def _fold_extend(sim: TaskGraphSimulator, network, recorder,
                     before: dict, after: dict, boundaries,
                     warmup: int, folded: int) -> None:
        """Replay the last warm-up iteration's deltas *folded* times."""
        for gpu in sim.gpus_seen:
            delta = after["busy"][gpu] - before["busy"].get(gpu, 0.0)
            sim.add_busy_time(gpu, folded * delta)
        sim.comm_task_time += folded * (after["comm_time"]
                                        - before["comm_time"])
        sim.comm_bytes += folded * (after["comm_bytes"]
                                    - before["comm_bytes"])
        network.extend_stats(before["network"], after["network"], folded)
        if recorder is not None:
            records = recorder.records
            last_end = boundaries[warmup - 1]
            offsets = [boundaries[warmup + index] - last_end
                       for index in range(folded)]
            records.extend(shift_records(
                records.segment(before["records"], after["records"]),
                offsets))

    def _assemble(self, profiler: PipelineProfiler, engine: Engine, network,
                  sim: TaskGraphSimulator, recorder, started: float,
                  total: float, iteration_times) -> SimulationResult:
        wall = _wall.perf_counter() - started
        timeline = recorder.records if recorder is not None else Timeline()
        compute = timeline.where("kind", lambda kind: kind == "compute")
        per_layer = timeline.total_by(
            "layer", compute & timeline.where("layer", bool))
        per_phase = timeline.total_by(
            "phase", compute & timeline.where("phase", bool))
        if self._engine_profile:
            # Split the engine phase into the instrumented loop's
            # buckets (queue_ops / handler / hook_overhead) so
            # ``simulate --profile`` shows where exact-path time goes.
            for bucket, seconds in sorted(self._engine_profile.items()):
                profiler.add_phase(f"engine.{bucket}", seconds)
        summarize = getattr(network, "network_summary", None)
        return SimulationResult(
            total_time=total,
            compute_time=sim.compute_task_time,
            communication_time=sim.comm_task_time,
            per_gpu_busy={g: sim.gpu_busy_time(g) for g in sim.gpus_seen},
            per_layer=per_layer,
            per_phase=per_phase,
            timeline=timeline,
            wall_time=wall,
            events=engine.dispatched_events,
            iteration_times=iteration_times,
            profile=profiler.to_dict(),
            network=summarize(total_time=total) if summarize else {},
        )
