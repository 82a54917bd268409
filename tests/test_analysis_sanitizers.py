"""Runtime sanitizers, task-graph lint rules, and their integration into
TrioSim and the sweep service."""

import types

import networkx as nx
import pytest

from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.analysis import (
    AllocatorWarningSanitizer,
    AnalysisError,
    HeapLeakSanitizer,
    MaxMinCertificate,
    Report,
    SanitizerSuite,
    TimeMonotonicSanitizer,
    lint_taskgraph,
)
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.hooks import HookCtx
from repro.network.flow import (
    HOOK_FLOW_REALLOC,
    HOOK_FLOW_WARNING,
    FlowNetwork,
    RoutingError,
)
from repro.network.topology import build_topology
from repro.service.runner import SweepRunner


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), batch_size=32)


def make_sim(num_gpus=2):
    engine = Engine()
    topology = build_topology("ring", num_gpus, 100e9, 1e-6)
    network = FlowNetwork(engine, topology)
    return TaskGraphSimulator(engine, network), topology


# ----------------------------------------------------------------------
# Sanitizer units
# ----------------------------------------------------------------------
class TestTimeMonotonic:
    def test_silent_on_monotonic_times(self):
        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        for t in (0.0, 0.5, 0.5, 1.25):
            sanitizer.func(HookCtx("before_event", t))
        assert report.ok

    def test_fires_on_backwards_time(self):
        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        sanitizer.func(HookCtx("before_event", 2.0))
        sanitizer.func(HookCtx("before_event", 1.0))
        assert report.rule_ids() == ["SZ001"]
        assert report.has_errors

    def test_findings_capped(self):
        from repro.analysis.sanitizers import MAX_FINDINGS_PER_SANITIZER

        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        sanitizer.func(HookCtx("before_event", 100.0))
        for t in range(50):
            sanitizer.func(HookCtx("before_event", float(t)))
        assert len(report.findings) == MAX_FINDINGS_PER_SANITIZER


class TestLinkCapacity:
    """The max-min certificate: SZ002 (capacity) and SZ006 (bottleneck)."""

    @staticmethod
    def realloc_ctx(flows, topology, time=1.0):
        return HookCtx(HOOK_FLOW_REALLOC, time, flows,
                       detail={"topology": topology})

    @staticmethod
    def flow(rate, route):
        return types.SimpleNamespace(rate=rate, route=route,
                                     src=route[0][0], dst=route[-1][1])

    def test_silent_within_capacity(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = MaxMinCertificate(report)
        flows = [self.flow(50.0, [("gpu0", "gpu1")]),
                 self.flow(50.0, [("gpu0", "gpu1")])]
        sanitizer.func(self.realloc_ctx(flows, g))
        assert report.ok

    def test_fires_on_oversubscribed_link(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = MaxMinCertificate(report)
        flows = [self.flow(80.0, [("gpu0", "gpu1")]),
                 self.flow(80.0, [("gpu0", "gpu1")])]
        sanitizer.func(self.realloc_ctx(flows, g))
        assert report.rule_ids() == ["SZ002"]
        assert "gpu0->gpu1" in report.findings[0].message

    def test_ignores_other_positions(self):
        report = Report()
        sanitizer = MaxMinCertificate(report)
        sanitizer.func(HookCtx("flow_start", 0.0, None))
        assert report.ok

    def test_real_network_respects_capacity(self):
        # Saturate one link with competing flows; max-min allocation must
        # never oversubscribe it.
        engine = Engine()
        g = build_topology("ring", 4, 1e9, 1e-6)
        network = FlowNetwork(engine, g)
        report = Report()
        network.accept_hook(MaxMinCertificate(report))
        done = []
        for i in range(4):
            network.send("gpu0", "gpu1", 1e6, lambda f: done.append(f))
        engine.run()
        assert len(done) == 4
        assert report.ok

    def test_fires_on_flow_without_bottleneck(self):
        # gpu0->gpu1 is saturated, but the flow at 40 is outranked there
        # by the one at 60 and its other link gpu1->gpu2 has headroom:
        # the 40 B/s flow could grow, so the rates are not max-min fair.
        g = nx.path_graph(["gpu0", "gpu1", "gpu2"])
        nx.set_edge_attributes(g, 100.0, "bandwidth")
        report = Report()
        sanitizer = MaxMinCertificate(report)
        flows = [self.flow(60.0, [("gpu0", "gpu1")]),
                 self.flow(40.0, [("gpu0", "gpu1"), ("gpu1", "gpu2")])]
        sanitizer.func(self.realloc_ctx(flows, g))
        assert report.rule_ids() == ["SZ006"]
        assert "gpu0->gpu2" in report.findings[0].message

    def test_rules_switch_individually(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        flows = [self.flow(80.0, [("gpu0", "gpu1")]),
                 self.flow(80.0, [("gpu0", "gpu1")]),
                 self.flow(10.0, [("gpu1", "gpu0")])]
        report = Report()
        MaxMinCertificate(report).func(self.realloc_ctx(flows, g))
        assert sorted(report.rule_ids()) == ["SZ002", "SZ006"]
        report = Report()
        MaxMinCertificate(report, capacity=False).func(
            self.realloc_ctx(flows, g))
        assert report.rule_ids() == ["SZ006"]
        report = Report()
        MaxMinCertificate(report, bottleneck=False).func(
            self.realloc_ctx(flows, g))
        assert report.rule_ids() == ["SZ002"]

    def test_route_off_the_topology_is_sz006(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        MaxMinCertificate(report).func(self.realloc_ctx(
            [self.flow(100.0, [("gpu0", "gpu2")])], g))
        assert report.rule_ids() == ["SZ006"]
        assert "not a topology edge" in report.findings[0].message


class TestAllocatorWarning:
    def test_warning_hook_becomes_sz004_finding(self):
        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        sanitizer.func(HookCtx(HOOK_FLOW_WARNING, 2.5,
                               "progressive filling stalled",
                               detail={"flows": 3}))
        assert report.rule_ids() == ["SZ004"]
        finding = report.findings[0]
        assert "progressive filling stalled" in finding.message
        assert "t=2.5" in finding.message
        assert finding.severity == "warning"
        assert not report.has_errors  # warnings never fail a run

    def test_ignores_other_positions(self):
        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        sanitizer.func(HookCtx(HOOK_FLOW_REALLOC, 0.0, []))
        assert report.ok

    def test_findings_capped(self):
        from repro.analysis.sanitizers import MAX_FINDINGS_PER_SANITIZER

        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        for i in range(MAX_FINDINGS_PER_SANITIZER + 20):
            sanitizer.func(HookCtx(HOOK_FLOW_WARNING, float(i), "stall"))
        assert len(report.findings) == MAX_FINDINGS_PER_SANITIZER

    def test_network_warning_reaches_attached_suite(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        suite = SanitizerSuite().attach(engine=engine, network=network)
        network._warn_allocator("synthetic stall", flows=1)
        report = suite.finalize(engine)
        assert "SZ004" in report.rule_ids()
        assert network.allocator_warnings == 1

    def test_sz004_can_be_disabled(self):
        from repro.analysis import DEFAULT_REGISTRY

        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        scoped = DEFAULT_REGISTRY.scoped(disable=["SZ004"])
        suite = SanitizerSuite(registry=scoped).attach(engine=engine,
                                                       network=network)
        network._warn_allocator("synthetic stall")
        report = suite.finalize(engine)
        assert "SZ004" not in report.rule_ids()


class TestHeapLeak:
    def test_clean_engine(self):
        engine = Engine()
        engine.call_after(1.0, lambda ev: None)
        engine.run()
        report = Report()
        HeapLeakSanitizer(report).check(engine)
        assert report.ok

    def test_detects_stranded_events(self):
        engine = Engine()
        engine.call_after(1.0, lambda ev: None)  # never run
        report = Report()
        HeapLeakSanitizer(report).check(engine)
        assert report.rule_ids() == ["SZ003"]


class TestSanitizerSuite:
    def test_attach_finalize_detaches_hooks(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        suite = SanitizerSuite().attach(engine=engine, network=network)
        assert len(engine._hooks) == 1
        # The max-min certificate (SZ002 + SZ006) and
        # allocator-convergence (SZ004).
        assert len(network._hooks) == 2
        engine.run()
        report = suite.finalize(engine)
        assert report.ok
        assert engine._hooks == [] and network._hooks == []

    def test_respects_disabled_rules(self):
        from repro.analysis import DEFAULT_REGISTRY

        engine = Engine()
        scoped = DEFAULT_REGISTRY.scoped(disable=["SZ001"])
        suite = SanitizerSuite(registry=scoped).attach(engine=engine)
        assert engine._hooks == []


# ----------------------------------------------------------------------
# Task-graph rules
# ----------------------------------------------------------------------
class TestTaskGraphLint:
    def test_clean_graph(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        b = sim.add_transfer("b", "gpu0", "gpu1", 1e6, deps=[a])
        sim.add_compute("c", "gpu1", 1e-3, deps=[b])
        assert lint_taskgraph(sim, topology=topology).ok

    def test_tg001_cycle(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        b = sim.add_compute("b", "gpu1", 1e-3, deps=[a])
        # Manually close the loop a -> b -> a.
        b.dependents.append(a)
        a.remaining_deps += 1
        report = lint_taskgraph(sim, topology=topology)
        assert "TG001" in report.rule_ids()
        assert report.has_errors

    def test_tg002_unknown_endpoint(self):
        sim, topology = make_sim()
        sim.add_transfer("t", "gpu0", "gpu7", 1e6)
        report = lint_taskgraph(sim, topology=topology)
        assert report.rule_ids() == ["TG002"]
        assert "gpu7" in report.findings[0].message

    def test_tg002_needs_topology(self):
        sim, _ = make_sim()
        sim.add_transfer("t", "gpu0", "gpu7", 1e6)
        assert lint_taskgraph(sim).ok  # endpoint check skipped

    def test_tg003_dep_count_mismatch(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        sim.add_compute("b", "gpu0", 1e-3, deps=[a])
        a.remaining_deps = 7  # corrupt the counter
        report = lint_taskgraph(sim, topology=topology)
        assert report.rule_ids() == ["TG003"]

    def test_extrapolated_graphs_are_clean(self, trace):
        for parallelism, kwargs in (
            ("ddp", {"num_gpus": 4}),
            ("tp", {"num_gpus": 4}),
            ("pp", {"num_gpus": 4, "chunks": 4}),
        ):
            config = SimulationConfig(parallelism=parallelism,
                                      topology="ring", **kwargs)
            sim = TrioSim(trace, config, sanitize=True)
            result = sim.run()  # sanitize lints the graph pre-run
            assert result.total_time > 0
            assert sim.sanitizer_report.ok


# ----------------------------------------------------------------------
# TrioSim integration
# ----------------------------------------------------------------------
class TestTrioSimSanitize:
    def test_sanitize_off_by_default(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config)
        sim.run()
        assert sim.sanitizer_report is None

    def test_sanitize_matches_unsanitized_result(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring")
        plain = TrioSim(trace, config).run()
        sanitized_sim = TrioSim(trace, config, sanitize=True)
        sanitized = sanitized_sim.run()
        assert sanitized.total_time == plain.total_time
        assert sanitized_sim.sanitizer_report.ok

    def test_broken_extrapolator_rejected_pre_run(self, trace, monkeypatch):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config, sanitize=True)
        original = TrioSim.build_plan

        def broken_build(self):
            plan = original(self)
            # Introduce a dependency cycle after extrapolation: the first
            # task also waits on a task that waits on it.
            waiter = next(t for t in plan.tasks if 0 in t.deps)
            plan.tasks[0].deps = (waiter.index,)
            return plan

        monkeypatch.setattr(TrioSim, "build_plan", broken_build)
        with pytest.raises(AnalysisError) as excinfo:
            sim.run()
        assert "TG001" in str(excinfo.value)
        assert excinfo.value.report.has_errors


# ----------------------------------------------------------------------
# Routing errors (satellite: descriptive FlowNetwork errors)
# ----------------------------------------------------------------------
class TestRoutingErrors:
    def test_unknown_endpoint_named(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        with pytest.raises(RoutingError, match="gpu9"):
            network.route("gpu0", "gpu9")

    def test_disconnected_pair_named(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        g.add_node("gpu2")
        network = FlowNetwork(Engine(), g)
        with pytest.raises(RoutingError, match="disconnected"):
            network.path_latency("gpu0", "gpu2")

    def test_routing_error_is_value_error(self):
        assert issubclass(RoutingError, ValueError)


# ----------------------------------------------------------------------
# Sweep-service integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_lint_rejects_bad_point_before_dispatch(self, trace):
        good = SimulationConfig(parallelism="ddp", num_gpus=2,
                                topology="ring")
        bad = SimulationConfig(parallelism="pp", num_gpus=2,
                               topology="ring", chunks=64)  # > batch 32
        runner = SweepRunner(max_workers=1)
        outcomes = runner.run(trace, [good, bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error.kind == "LintError"
        assert "CF006" in outcomes[1].error.message
        assert runner.last_metrics.errors == 1

    def test_lint_can_be_disabled(self, trace):
        good = SimulationConfig(parallelism="ddp", num_gpus=2,
                                topology="ring")
        runner = SweepRunner(max_workers=1, lint=False)
        outcomes = runner.run(trace, [good])
        assert outcomes[0].ok

    def test_sanitized_sweep_is_clean_and_identical(self, trace):
        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=n, topology="ring")
            for n in (2, 4)
        ]
        plain = SweepRunner(max_workers=1).run(trace, configs)
        sanitized = SweepRunner(max_workers=1, sanitize=True).run(
            trace, configs
        )
        for p, s in zip(plain, sanitized):
            assert s.ok
            assert s.result.total_time == p.result.total_time
            assert s.sanitizer_findings == []

    def test_outcome_dict_carries_sanitizer_findings(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        runner = SweepRunner(max_workers=1, sanitize=True)
        outcome = runner.run(trace, [config])[0]
        assert outcome.to_dict()["sanitizer_findings"] == []

    def test_parallel_workers_thread_sanitize(self, trace):
        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=n, topology="ring")
            for n in (2, 4)
        ]
        runner = SweepRunner(max_workers=2, sanitize=True)
        outcomes = runner.run(trace, configs)
        assert all(o.ok for o in outcomes)
        assert all(o.sanitizer_findings == [] for o in outcomes)
