"""Tests for the fault-injection subsystem (repro.faults).

The subsystem's contract: an empty spec is bit-identical to no spec
(zero-cost-by-default); a nonzero spec is deterministic — the same
``(trace, config, fault seed)`` yields the same total time on every run;
each fault class actually perturbs the run in the expected direction; and
the supporting primitives (``defer_pending``, ``set_link_capacity``,
``FaultClock``) keep their local invariants.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_config
from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.engine.engine import Engine
from repro.faults import (
    ChaosError,
    DeviceFailure,
    FaultClock,
    FaultSpec,
    LinkFault,
    Straggler,
    parse_link,
)
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology, has_link, link_names, ring
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16)


def _config(faults=None, **overrides):
    base = dict(parallelism="ddp", num_gpus=4, topology="ring",
                link_bandwidth=25e9)
    base.update(overrides)
    return SimulationConfig(faults=faults, **base)


def _total(trace, config, **sim_kwargs):
    return TrioSim(trace, config, **sim_kwargs).run().total_time


# ----------------------------------------------------------------------
# Spec data model
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_roundtrip_is_identity(self):
        spec = FaultSpec(
            seed=3,
            stragglers=(Straggler("gpu1", 0.1, 0.2, 2.0),),
            link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.5, 0.25),),
            failures=(DeviceFailure("gpu2", 0.3),),
            checkpoint_interval=0.1, checkpoint_cost=0.01,
            restore_cost=0.02,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_dicts_coerce_to_dataclasses(self):
        spec = FaultSpec(stragglers=[{"gpu": "gpu0", "start": 0.0,
                                      "duration": 1.0, "factor": 2.0}])
        assert spec.stragglers == (Straggler("gpu0", 0.0, 1.0, 2.0),)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"seed": 0, "bogus": 1})

    def test_future_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            FaultSpec.from_dict({"schema_version": 99})

    @pytest.mark.parametrize("build", [
        lambda: Straggler("g", -1.0, 1.0, 2.0),
        lambda: Straggler("g", 0.0, 0.0, 2.0),
        lambda: Straggler("g", 0.0, 1.0, 0.0),
        lambda: LinkFault("gpu0-gpu1", 0.0, 1.0, 0.0),
        lambda: LinkFault("nodash", 0.0, 1.0, 0.5),
        lambda: DeviceFailure("g", -1.0),
        lambda: FaultSpec(checkpoint_interval=0.0),
        lambda: FaultSpec(checkpoint_cost=-1.0),
        lambda: FaultSpec(restore_cost=-0.1),
        lambda: FaultSpec(chaos_kill_at=-0.1),
    ])
    def test_invalid_values_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_is_empty(self):
        assert FaultSpec().is_empty
        assert FaultSpec(checkpoint_interval=1.0).is_empty  # costless
        assert not FaultSpec(checkpoint_interval=1.0, checkpoint_cost=0.1).is_empty
        assert not FaultSpec(stragglers=(Straggler("g", 0, 1, 2),)).is_empty
        assert not FaultSpec(chaos_kill_at=1.0).is_empty

    def test_load_from_file(self, tmp_path):
        spec = FaultSpec(failures=(DeviceFailure("gpu0", 0.5),))
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert FaultSpec.load(path) == spec

    def test_parse_link(self):
        assert parse_link("gpu0-switch0") == ("gpu0", "switch0")
        for bad in ("gpu0", "-gpu0", "gpu0-"):
            with pytest.raises(ValueError):
                parse_link(bad)

    def test_sample_is_deterministic(self):
        kwargs = dict(horizon=10.0, num_gpus=8, mtbf=2.0,
                      straggler_rate=1.0, straggler_severity=3.0)
        a = FaultSpec.sample(seed=7, **kwargs)
        assert a == FaultSpec.sample(seed=7, **kwargs)
        assert a != FaultSpec.sample(seed=8, **kwargs)
        assert a.failures and a.stragglers
        assert all(f.time < 10.0 for f in a.failures)

    def test_sample_validates(self):
        with pytest.raises(ValueError):
            FaultSpec.sample(seed=0, horizon=0.0, num_gpus=4)
        with pytest.raises(ValueError):
            FaultSpec.sample(seed=0, horizon=1.0, num_gpus=4, mtbf=-1.0)
        with pytest.raises(ValueError, match="links"):
            FaultSpec.sample(seed=0, horizon=1.0, num_gpus=4,
                             link_flap_rate=1.0)


# ----------------------------------------------------------------------
# Config integration
# ----------------------------------------------------------------------
class TestConfigIntegration:
    def test_spec_travels_through_config_dict(self):
        spec = FaultSpec(failures=(DeviceFailure("gpu0", 0.5),),
                         checkpoint_interval=0.1, checkpoint_cost=0.01)
        config = _config(faults=spec)
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.faults == spec

    def test_spec_changes_cache_key(self):
        healthy = _config()
        faulted = _config(faults=FaultSpec(
            failures=(DeviceFailure("gpu0", 0.5),), restore_cost=0.01))
        assert healthy.cache_key() != faulted.cache_key()
        # A re-sample with a different seed is a different point too.
        a = _config(faults=FaultSpec(seed=1))
        b = _config(faults=FaultSpec(seed=2))
        assert a.cache_key() != b.cache_key()


# ----------------------------------------------------------------------
# Engine / network primitives
# ----------------------------------------------------------------------
class TestDeferPending:
    def test_uniform_shift_preserves_order(self):
        eng = Engine()
        times = []
        for t in (1.0, 2.0, 3.0):
            eng.call_at(t, lambda e: times.append(eng.now))
        eng.call_at(0.5, lambda e: eng.defer_pending(10.0))
        eng.run()
        assert times == [11.0, 12.0, 13.0]

    def test_excluded_events_stay_put(self):
        eng = Engine()
        times = {}
        wall = eng.call_at(2.0, lambda e: times.setdefault("wall", eng.now))
        eng.call_at(3.0, lambda e: times.setdefault("work", eng.now))
        eng.call_at(0.5, lambda e: eng.defer_pending(10.0, exclude=(wall,)))
        eng.run()
        assert times == {"wall": 2.0, "work": 13.0}

    def test_zero_delay_is_noop(self):
        eng = Engine()
        eng.call_at(1.0, lambda e: None)
        assert eng.defer_pending(0.0) == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().defer_pending(-1.0)


class TestSetLinkCapacity:
    def _network(self):
        eng = Engine()
        net = FlowNetwork(eng, ring(4, bandwidth=100.0, latency=0.0))
        return eng, net

    def test_degrade_slows_active_flow(self):
        eng, net = self._network()
        done = []
        net.send("gpu0", "gpu1", 100.0, lambda t: done.append(eng.now))
        eng.call_at(0.5, lambda e: net.set_link_capacity("gpu0", "gpu1", 50.0))
        eng.run()
        # 50 bytes at full rate, the rest at half rate: 0.5 + 50/50 = 1.5
        assert done == [pytest.approx(1.5)]

    def test_restore_mid_flow(self):
        eng, net = self._network()
        done = []
        net.send("gpu0", "gpu1", 100.0, lambda t: done.append(eng.now))
        eng.call_at(0.0, lambda e: net.set_link_capacity("gpu0", "gpu1", 50.0))
        eng.call_at(1.0, lambda e: net.set_link_capacity("gpu0", "gpu1", 100.0))
        eng.run()
        # Half the bytes at half rate, the rest at full: 1.0 + 0.5 = 1.5
        assert done == [pytest.approx(1.5)]

    def test_unknown_link_rejected(self):
        _eng, net = self._network()
        with pytest.raises((KeyError, ValueError)):
            net.set_link_capacity("gpu0", "gpu2", 50.0)
        with pytest.raises(ValueError):
            net.set_link_capacity("gpu0", "gpu1", 0.0)

    def test_stall_transfers_nothing(self):
        eng, net = self._network()
        done = []
        net.send("gpu0", "gpu1", 100.0, lambda t: done.append(eng.now))

        def freeze(event):
            eng.defer_pending(2.0)
            net.stall(2.0)

        eng.call_at(0.5, freeze)
        eng.run()
        assert done == [pytest.approx(3.0)]


class TestTopologyHelpers:
    def test_link_names_sorted_endpoints(self):
        names = link_names(build_topology("ring", 4, 1.0))
        assert names == sorted(names)
        assert "gpu0-gpu1" in names

    def test_has_link(self):
        graph = build_topology("ring", 4, 1.0)
        assert has_link(graph, "gpu0-gpu1")
        assert has_link(graph, "gpu1-gpu0")
        assert not has_link(graph, "gpu0-gpu2")
        assert not has_link(graph, "nodash")


# ----------------------------------------------------------------------
# FaultClock arithmetic
# ----------------------------------------------------------------------
class TestFaultClock:
    def test_failure_without_checkpoint_replays_from_zero(self):
        clock = FaultClock(interval=None, checkpoint_cost=0.0,
                          restore_cost=0.5)
        assert clock.on_failure(10.0) == pytest.approx(10.5)
        assert clock.failures_recovered == 1

    def test_checkpoint_bounds_lost_work(self):
        clock = FaultClock(interval=1.0, checkpoint_cost=0.1,
                          restore_cost=0.5)
        assert clock.on_checkpoint(4.0) == pytest.approx(0.1)
        # Failure at t=5: productive time since the checkpoint resumed at
        # 4.1 is 0.9; stall = lost 0.9 + restore 0.5.
        assert clock.on_failure(5.0) == pytest.approx(1.4)

    def test_stall_time_is_not_lost_work(self):
        clock = FaultClock(interval=1.0, checkpoint_cost=0.1,
                          restore_cost=0.5)
        clock.on_checkpoint(4.0)
        clock.on_failure(5.0)   # stalls 1.4; resume anchor stays at 4.1
        # A second failure right when the replay finishes re-loses the
        # same 0.9 productive seconds since the checkpoint — the 1.4
        # seconds of stall in between don't count as lost work.
        assert clock.on_failure(6.4) == pytest.approx(1.4)
        assert clock.total_stall == pytest.approx(2.9)
        assert clock.checkpoints_taken == 1
        assert clock.failures_recovered == 2


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_empty_spec_bit_identical_to_no_spec(self, trace):
        baseline = _total(trace, _config())
        assert _total(trace, _config(faults=FaultSpec())) == baseline
        assert _total(trace, _config(faults=FaultSpec(seed=42))) == baseline
        # Costless checkpointing is also a no-op.
        assert _total(trace, _config(
            faults=FaultSpec(checkpoint_interval=0.001))) == baseline

    def test_faulted_run_is_deterministic(self, trace):
        spec = FaultSpec.sample(
            seed=11, horizon=0.05, num_gpus=4, mtbf=0.01,
            straggler_rate=100.0, straggler_severity=2.5,
            checkpoint_interval=0.002, checkpoint_cost=1e-4,
            restore_cost=2e-4,
        )
        config = _config(faults=spec)
        first = _total(trace, config)
        assert _total(trace, config) == first
        # ... and through the config's serialized form.
        replayed = SimulationConfig.from_dict(config.to_dict())
        assert _total(trace, replayed) == first


class TestPerturbations:
    def test_straggler_slows_the_run(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(stragglers=(
            Straggler("gpu1", 0.0, baseline, 4.0),))
        assert _total(trace, _config(faults=spec)) > baseline

    def test_link_fault_slows_the_run(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(link_faults=(
            LinkFault("gpu0-gpu1", 0.0, baseline, 0.02),))
        assert _total(trace, _config(faults=spec)) > baseline

    def test_link_capacity_restored_after_window(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(link_faults=(
            LinkFault("gpu0-gpu1", 0.0, baseline * 10, 0.5),
            LinkFault("gpu0-gpu1", 0.0, baseline * 10, 0.5),))
        sim = TrioSim(trace, _config(faults=spec))
        sim.run()
        stats = sim.fault_stats
        assert stats["link_transitions"] == 4

    def test_failure_adds_stall(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(
            failures=(DeviceFailure("gpu0", baseline / 2),),
            checkpoint_interval=baseline / 5, checkpoint_cost=0.0,
            restore_cost=baseline / 10,
        )
        sim = TrioSim(trace, _config(faults=spec))
        total = sim.run().total_time
        assert total > baseline
        assert sim.fault_stats["failures_recovered"] == 1
        assert sim.fault_stats["total_stall_time"] > 0

    def test_failure_after_the_run_is_a_noop(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(failures=(DeviceFailure("gpu0", baseline * 100),),
                         restore_cost=1.0)
        assert _total(trace, _config(faults=spec)) == baseline

    def test_checkpoint_cost_accumulates(self, trace):
        baseline = _total(trace, _config())
        spec = FaultSpec(checkpoint_interval=baseline / 4,
                         checkpoint_cost=baseline / 10)
        sim = TrioSim(trace, _config(faults=spec))
        total = sim.run().total_time
        assert total > baseline
        assert sim.fault_stats["checkpoints_taken"] >= 2

    def test_chaos_refused_in_process(self, trace):
        spec = FaultSpec(chaos_kill_at=0.001)
        with pytest.raises(ChaosError):
            TrioSim(trace, _config(faults=spec)).run()

    def test_sanitized_faulted_run_is_clean(self, trace):
        spec = FaultSpec(
            stragglers=(Straggler("gpu1", 0.0, 0.002, 3.0),),
            link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.002, 0.5),),
            failures=(DeviceFailure("gpu0", 0.004),),
            checkpoint_interval=0.002, checkpoint_cost=1e-4,
            restore_cost=1e-4,
        )
        sim = TrioSim(trace, _config(faults=spec), sanitize=True)
        sim.run()
        assert not sim.sanitizer_report.has_errors


# ----------------------------------------------------------------------
# Lint rules (FT00x)
# ----------------------------------------------------------------------
class TestFaultLintRules:
    def _ids(self, config, trace=None):
        return set(lint_config(config, trace).rule_ids())

    def test_clean_faulted_config_has_no_ft_findings(self):
        spec = FaultSpec(
            stragglers=(Straggler("gpu1", 0.0, 0.1, 2.0),),
            link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.1, 0.5),),
            failures=(DeviceFailure("gpu2", 0.05),),
            checkpoint_interval=0.1, checkpoint_cost=0.001,
        )
        assert not {i for i in self._ids(_config(faults=spec))
                    if i.startswith("FT")}

    def test_no_faults_no_ft_findings(self):
        assert not {i for i in self._ids(_config()) if i.startswith("FT")}

    def test_ft001_unknown_device(self):
        spec = FaultSpec(stragglers=(Straggler("gpu99", 0.0, 0.1, 2.0),))
        assert "FT001" in self._ids(_config(faults=spec))

    def test_ft002_unknown_link(self):
        spec = FaultSpec(link_faults=(LinkFault("gpu0-gpu2", 0.0, 0.1, 0.5),))
        assert "FT002" in self._ids(_config(faults=spec))

    def test_ft003_noop_window(self):
        spec = FaultSpec(stragglers=(Straggler("gpu1", 0.0, 0.1, 1.0),))
        assert "FT003" in self._ids(_config(faults=spec))
        spec = FaultSpec(link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.1, 1.0),))
        assert "FT003" in self._ids(_config(faults=spec))

    def test_ft004_unprotected_failure(self):
        spec = FaultSpec(failures=(DeviceFailure("gpu0", 0.1),))
        assert "FT004" in self._ids(_config(faults=spec))

    def test_ft005_checkpoint_overhead(self):
        spec = FaultSpec(checkpoint_interval=0.1, checkpoint_cost=0.1)
        assert "FT005" in self._ids(_config(faults=spec))

    def test_ft006_chaos_kill_is_a_warning(self):
        spec = FaultSpec(chaos_kill_at=0.01)
        report = lint_config(_config(faults=spec))
        assert "FT006" in set(report.rule_ids())
        assert not report.has_errors


class TestDirectApiFaultTargets:
    """``TrioSim.run()`` checks fault targets against the topology it
    built before the first event, so a spec naming a missing device or
    link ends as FT001/FT002 findings instead of a mid-run ``KeyError``."""

    def test_link_flap_example_on_leaf_spine_is_ft002(self, trace):
        from repro.analysis import AnalysisError

        example = (Path(__file__).parent.parent
                   / "examples/faults_link_flap.json")
        spec = FaultSpec.from_dict(json.loads(example.read_text()))
        config = _config(faults=spec, topology="leaf_spine")
        with pytest.raises(AnalysisError) as info:
            TrioSim(trace, config).run()
        findings = info.value.report.errors
        assert {f.rule for f in findings} == {"FT002"}
        assert {f.detail["link"] for f in findings} == {"gpu0-gpu1",
                                                        "gpu2-gpu3"}
        # The same findings lint_config reports for this config.
        assert "FT002" in set(lint_config(config).rule_ids())

    def test_unknown_straggler_gpu_is_ft001(self, trace):
        from repro.analysis import AnalysisError

        spec = FaultSpec(stragglers=(Straggler("gpu99", 0.0, 0.1, 2.0),))
        with pytest.raises(AnalysisError) as info:
            TrioSim(trace, _config(faults=spec)).run()
        assert set(info.value.report.rule_ids()) == {"FT001"}

    def test_valid_targets_still_run(self, trace):
        spec = FaultSpec(link_faults=(LinkFault("gpu0-gpu1", 0.0, 10.0, 0.5),))
        assert _total(trace, _config(faults=spec)) > _total(trace, _config())
