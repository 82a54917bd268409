"""Benchmark: regenerate Figure 14 (simulator execution time).

Paper claim: every DDP-on-P2 simulation completes within seconds, and
wall time tracks the trace size.  This is the one benchmark where the
*benchmarked quantity itself* is the figure.

The large-scale case extends the figure beyond the paper: a >= 64-GPU
collective-heavy load that stresses the network hot path, pinned to the
simulated time, event count and cancellation count recorded in
``bench_to_json.py`` (see ``network_load.py`` for the scenarios).
"""

from conftest import QUICK

from bench_to_json import FULL_CASES, QUICK_CASES, run_case

from repro.experiments import fig14


def test_fig14_simulator_execution_time(benchmark, show):
    result = benchmark.pedantic(
        lambda: fig14.run(quick=QUICK), rounds=1, iterations=1
    )
    show(result.table())
    assert all(r.predicted < 30.0 for r in result.rows)
    # Wall time correlates with trace size: the biggest trace should not
    # be simulated faster than the smallest one by a wide margin.
    by_ops = sorted(result.rows, key=lambda r: r.detail["operators"])
    assert by_ops[-1].predicted > by_ops[0].predicted * 0.5


def test_fig14_large_scale_collectives(benchmark, show):
    """>= 64 GPUs of staggered gradient-bucket all-reduces: node-local
    traffic is link-disjoint, so the scoped allocator reproduces the
    pinned simulated time and event count and cancels no delivery."""
    scenario, params, pins = (QUICK_CASES if QUICK else FULL_CASES)[0]
    assert scenario == "hierarchical_buckets"
    result = benchmark.pedantic(
        lambda: run_case(scenario, params, pins, repeats=1),
        rounds=1, iterations=1,
    )
    show(
        f"{params['num_gpus']} GPUs, {params['buckets']} buckets/node: "
        f"{result['wall_time_s'] * 1e3:.0f} ms wall, "
        f"{result['events']} events ({result['events_per_sec']:,.0f}/s), "
        f"{result['reschedules']} reschedules, "
        f"{result['cancellations']} cancellations"
    )
    assert result["cancellations"] == 0
