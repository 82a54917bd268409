"""Workload and metric names with their units (mirrored in BENCHMARK.json).

Kept free of ``repro`` imports so ``run.py`` can read it before any
simulator code is loaded.
"""

WORKLOADS = ("fabric_exact", "pipeline_timeline", "paper_sweep")

#: End-to-end metrics (host wall time, tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "point_s_p50": "s",
    "session_s_p50": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers of the per-layer ledger; their self times plus
#: ``ledger.unattributed_s`` sum to ``ledger.wall_s``.
LEDGER_LAYERS = (
    "perfmodel", "extrapolator", "plan", "taskgraph", "engine", "network",
    "network.routing", "network.topology", "faults", "results", "analysis",
    "service", "service.cache", "core", "tracing",
)

#: Per-layer metrics of the traced run: name -> unit.  Times are per
#: point (per session on paper_sweep) unless the name says otherwise.
PER_LAYER = {
    "trace.collect_s": "s",
    "perfmodel.prepare_s": "s",
    "extrapolator.plan_s": "s",
    "extrapolator.plan_tasks": "count",
    "extrapolator.us_per_task": "us",
    "plan.instance_s": "s",
    "plan.instance_us_per_task": "us",
    "taskgraph.self_s": "s",
    "taskgraph.tasks_run": "count",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.ns_per_event": "ns",
    "engine.cancelled": "count",
    "engine.compactions": "count",
    "network.self_s": "s",
    "network.flows": "count",
    "network.us_per_flow": "us",
    "network.reallocations": "count",
    "network.reschedules": "count",
    "network.fastpath_ratio": "ratio",
    "network.routing_self_s": "s",
    "network.topology_s": "s",
    "faults.self_s": "s",
    "faults.injections": "count",
    "fold.extend_s": "s",
    "fold.iterations_folded": "count",
    "results.self_s": "s",
    "results.timeline_records": "count",
    "results.serialize_s": "s",
    "results.bytes": "bytes",
    "analysis.lint_s": "s",
    "service.session_overhead_s": "s",
    "service.worker_busy_ratio": "ratio",
    "service.result_hit_ratio": "ratio",
    "service.plan_hit_ratio": "ratio",
    "service.cache_load_s": "s",
    "service.cache_store_s": "s",
    "service.transport_bytes": "bytes",
    "service.transport_s": "s",
    "service.retries": "count",
    "tracing.overhead_ratio": "ratio",
    "ledger.wall_s": "s",
    "ledger.unattributed_s": "s",
}
PER_LAYER.update({f"ledger.{layer}_s": "s" for layer in LEDGER_LAYERS})
