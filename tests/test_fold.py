"""Steady-state iteration folding.

The load-bearing properties:

* **Bounded error** — a folded run reproduces the unfolded run's totals,
  iteration times, and counters to within the fold tolerance (observed
  drift is machine-epsilon scale), and its warm-up iterations match the
  unfolded run *exactly*.
* **Bit-identical fallback** — anything fold-ineligible (faults, hooks,
  sanitize/verify, dynamic routing, ``fold=False``) takes the exact
  event-by-event path and produces results bit-identical to a run with
  folding disabled.
"""

import pytest

from repro.analysis import lint_config
from repro.core.config import SimulationConfig
from repro.core.fold import (
    FOLD_MIN_FOLDED,
    FoldDecision,
    config_fold_reason,
    fold_decision,
    steady,
)
from repro.core.simulator import TrioSim, iteration_times_from_fences
from repro.engine.engine import Engine
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


def make_config(**overrides):
    base = dict(parallelism="ddp", num_gpus=4, topology="ring",
                iterations=6)
    base.update(overrides)
    return SimulationConfig(**base)


def payload(result):
    """A result's simulation state: everything except host-side timing."""
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("profile")
    return data


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestFoldConfig:
    def test_defaults(self):
        config = make_config()
        assert config.fold is True
        assert config.fold_warmup == 2
        assert config.fold_tolerance == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(fold="yes")
        with pytest.raises(ValueError):
            make_config(fold_warmup=0)
        with pytest.raises(ValueError):
            make_config(fold_warmup=1.5)
        with pytest.raises(ValueError):
            make_config(fold_tolerance=-1e-9)

    def test_older_schema_versions_get_fold_defaults(self):
        data = make_config().to_dict()
        data["schema_version"] = 2
        for key in ("fold", "fold_warmup", "fold_tolerance"):
            data.pop(key, None)
        config = SimulationConfig.from_dict(data)
        assert config.fold is True
        assert config.fold_warmup == 2

    def test_roundtrip_preserves_fold_knobs(self):
        config = make_config(fold=False, fold_warmup=3, fold_tolerance=1e-6)
        again = SimulationConfig.from_dict(config.to_dict())
        assert again.fold is False
        assert again.fold_warmup == 3
        assert again.fold_tolerance == 1e-6


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
class TestEligibility:
    def test_default_multi_iteration_run_is_eligible(self):
        assert fold_decision(make_config()) == FoldDecision(True)

    def test_disabled(self):
        assert config_fold_reason(make_config(fold=False)) == "disabled"

    def test_few_iterations(self):
        # Folding engages only when it skips >= FOLD_MIN_FOLDED iterations.
        threshold = 2 + FOLD_MIN_FOLDED  # fold_warmup default is 2
        short = make_config(iterations=threshold - 1)
        assert config_fold_reason(short) == "few-iterations"
        assert config_fold_reason(make_config(iterations=threshold)) is None

    def test_faults(self):
        spec = FaultSpec(stragglers=[
            {"gpu": "gpu1", "start": 0.0, "duration": 0.01, "factor": 2.0}])
        assert config_fold_reason(make_config(faults=spec)) == "faults"
        assert config_fold_reason(make_config(faults=FaultSpec())) is None

    def test_custom_network_factory(self):
        config = make_config(
            network_factory=lambda engine, cfg: object())
        assert config_fold_reason(config) == "custom-network"

    def test_observers_force_exact_path(self):
        config = make_config()
        assert fold_decision(config, hooks=(object(),)).reason == "hooks"
        assert fold_decision(config, sanitize=True).reason == "sanitize"
        assert fold_decision(config, verify=True).reason == "verify"

    def test_dynamic_routing_ineligible_static_eligible(self):
        engine = Engine()
        topology = build_topology("leaf_spine", 8, 25e9, 1e-6)
        config = make_config(num_gpus=8, topology="leaf_spine")
        for name, expect in (("ecmp", None), ("flowlet", "dynamic-routing"),
                             ("adaptive", "dynamic-routing")):
            network = FlowNetwork(engine, topology, routing=name)
            decision = fold_decision(config, network=network)
            assert (None if decision.eligible else decision.reason) == expect

    def test_network_without_snapshot_contract(self):
        class Opaque:
            pass

        decision = fold_decision(make_config(), network=Opaque())
        assert decision.reason == "custom-network"

    def test_steady(self):
        assert steady(1.0, 1.0, 0.0)
        assert steady(0.0, 0.0, 0.0)
        assert steady(1.0, 1.0 + 1e-12, 1e-9)
        assert not steady(1.0, 1.1, 1e-9)
        assert not steady(1.0, 1.0 + 1e-12, 1e-15)


# ----------------------------------------------------------------------
# Folded vs unfolded: bounded error
# ----------------------------------------------------------------------
class TestFoldedAccuracy:
    @pytest.fixture(scope="class")
    def pair(self, trace):
        config = make_config()
        folded = TrioSim(trace, config).run()
        exact = TrioSim(trace, make_config(fold=False)).run()
        return config, folded, exact

    def test_statuses(self, pair):
        config, folded, exact = pair
        assert folded.profile["fold_status"] == "folded"
        assert folded.profile["counters"]["iterations_folded"] == \
            config.iterations - config.fold_warmup
        assert exact.profile["fold_status"] == "off:disabled"
        assert "iterations_folded" not in exact.profile["counters"]

    def test_fold_phases_profiled(self, pair):
        _, folded, exact = pair
        assert "fold_detect" in folded.profile["phases"]
        assert "fold_extend" in folded.profile["phases"]
        assert "fold_detect" not in exact.profile["phases"]

    def test_total_time_within_tolerance(self, pair):
        config, folded, exact = pair
        error = abs(folded.total_time - exact.total_time) / exact.total_time
        assert error <= config.fold_tolerance

    def test_warmup_iterations_exact(self, pair):
        config, folded, exact = pair
        warm = config.fold_warmup
        assert folded.iteration_times[:warm] == exact.iteration_times[:warm]

    def test_iteration_times_property(self, pair):
        # The satellite property: folded per-iteration times agree with
        # the fully simulated ones within tolerance, and telescope to the
        # folded total *exactly* (boundaries extend by repeated addition).
        config, folded, exact = pair
        assert len(folded.iteration_times) == config.iterations
        for mine, theirs in zip(folded.iteration_times,
                                exact.iteration_times):
            assert mine == pytest.approx(theirs, rel=config.fold_tolerance,
                                         abs=0.0)
        assert sum(folded.iteration_times) == folded.total_time

    def test_counters_extended(self, pair):
        _, folded, exact = pair
        assert folded.compute_time == pytest.approx(exact.compute_time,
                                                    rel=1e-9)
        assert folded.communication_time == pytest.approx(
            exact.communication_time, rel=1e-9)
        for gpu, busy in exact.per_gpu_busy.items():
            assert folded.per_gpu_busy[gpu] == pytest.approx(busy, rel=1e-9)

    def test_network_counters_extended(self, pair):
        _, folded, exact = pair
        assert folded.network["flows_delivered"] == \
            exact.network["flows_delivered"]
        assert folded.network["bytes_delivered"] == \
            exact.network["bytes_delivered"]
        assert folded.network["fct"]["count"] == exact.network["fct"]["count"]
        for name, entry in exact.network["links"].items():
            assert folded.network["links"][name]["flows"] == entry["flows"]

    def test_timeline_replicated(self, pair):
        config, folded, exact = pair
        assert len(folded.timeline) == len(exact.timeline)
        # Replicated records keep resources/phases; starts drift at most
        # by the fold tolerance.
        last_f, last_e = folded.timeline[-1], exact.timeline[-1]
        assert last_f.resource == last_e.resource
        assert last_f.name == last_e.name
        assert last_f.end == pytest.approx(last_e.end, rel=config.fold_tolerance)

    def test_fold_warmup_one_skips_steadiness_check(self, trace):
        result = TrioSim(trace, make_config(fold_warmup=1)).run()
        assert result.profile["fold_status"] == "folded"
        assert result.profile["counters"]["plan_instances"] == 1
        assert result.profile["counters"]["iterations_folded"] == 5

    def test_single_iteration_unaffected(self, trace):
        result = TrioSim(trace, make_config(iterations=1)).run()
        assert "fold_status" not in result.profile
        assert result.iteration_times == []


# ----------------------------------------------------------------------
# Fallbacks: not-steady and auto-disable are bit-identical to fold=False
# ----------------------------------------------------------------------
class TestExactFallbacks:
    def test_not_steady_falls_back_bit_identically(self, trace, monkeypatch):
        import repro.core.simulator as sim_mod

        monkeypatch.setattr(sim_mod, "steady",
                            lambda previous, last, tolerance: False)
        fallback = TrioSim(trace, make_config()).run()
        exact = TrioSim(trace, make_config(fold=False)).run()
        assert fallback.profile["fold_status"] == "not-steady"
        assert payload(fallback) == payload(exact)

    def test_faulted_run_auto_disables_bit_identically(self, trace):
        spec = FaultSpec(stragglers=[
            {"gpu": "gpu1", "start": 0.0, "duration": 0.005, "factor": 2.0}])
        auto = TrioSim(trace, make_config(faults=spec)).run()
        manual = TrioSim(trace, make_config(faults=spec, fold=False)).run()
        assert auto.profile["fold_status"] == "off:faults"
        assert payload(auto) == payload(manual)

    def test_sanitized_run_auto_disables(self, trace):
        result = TrioSim(trace, make_config(), sanitize=True).run()
        assert result.profile["fold_status"] == "off:sanitize"

    def test_verified_run_auto_disables(self, trace):
        result = TrioSim(trace, make_config(), verify=True).run()
        assert result.profile["fold_status"] == "off:verify"

    def test_hooked_run_auto_disables_bit_identically(self, trace):
        class Hook:
            def func(self, ctx):
                pass

        hooked = TrioSim(trace, make_config(), hooks=(Hook(),)).run()
        exact = TrioSim(trace, make_config(fold=False)).run()
        assert hooked.profile["fold_status"] == "off:hooks"
        assert payload(hooked) == payload(exact)

    def test_adaptive_routing_auto_disables(self, trace):
        config = make_config(num_gpus=8, topology="leaf_spine",
                             routing="adaptive")
        result = TrioSim(trace, config).run()
        assert result.profile["fold_status"] == "off:dynamic-routing"

    def test_folding_is_deterministic(self, trace):
        first = TrioSim(trace, make_config()).run()
        second = TrioSim(trace, make_config()).run()
        assert payload(first) == payload(second)


# ----------------------------------------------------------------------
# iteration_times_from_fences edge cases (satellite)
# ----------------------------------------------------------------------
class TestIterationTimesFromFences:
    def test_empty_fence_list(self):
        assert iteration_times_from_fences([], 5.0) == [5.0]

    def test_fence_beyond_total_is_clamped(self):
        times = iteration_times_from_fences([3.0, 7.0], 5.0)
        assert times == [3.0, 2.0, 0.0]
        assert sum(times) == 5.0
        assert all(t >= 0.0 for t in times)

    def test_duplicate_fence_times(self):
        times = iteration_times_from_fences([2.0, 2.0], 6.0)
        assert times == [2.0, 0.0, 4.0]
        assert sum(times) == 6.0


# ----------------------------------------------------------------------
# PF001: avoidable fold-ineligibility lint (satellite)
# ----------------------------------------------------------------------
class TestPF001:
    @staticmethod
    def findings(config):
        return [f for f in lint_config(config).findings if f.rule == "PF001"]

    def test_disabled_fold_warns(self):
        found = self.findings(make_config(iterations=8, fold=False))
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_eligible_config_is_silent(self):
        assert self.findings(make_config(iterations=8)) == []

    def test_short_run_is_silent(self):
        assert self.findings(make_config(iterations=2, fold=False)) == []

    def test_bounded_fault_window_warns(self):
        spec = FaultSpec(stragglers=[
            {"gpu": "gpu0", "start": 0.0, "duration": 0.01, "factor": 2.0}])
        found = self.findings(make_config(iterations=8, faults=spec))
        assert len(found) == 1
        assert "t=0.01" in found[0].message

    def test_unbounded_fault_spec_is_silent(self):
        spec = FaultSpec(failures=[{"device": "gpu0", "time": 0.01}])
        assert self.findings(make_config(iterations=8, faults=spec)) == []

    def test_dynamic_routing_on_multipath_warns(self):
        config = make_config(num_gpus=8, topology="leaf_spine",
                             iterations=8, routing="adaptive")
        found = self.findings(config)
        assert len(found) == 1
        assert "ecmp" in found[0].message

    def test_dynamic_routing_on_single_path_topology_is_silent(self):
        # The simulator nulls strategies on single-path topologies, so the
        # run stays foldable and the warning would be noise.
        config = make_config(iterations=8, routing="adaptive")
        assert self.findings(config) == []
