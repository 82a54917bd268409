"""End-to-end tests for the TrioSim facade."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


def _run(trace, **cfg):
    return TrioSim(trace, SimulationConfig(**cfg)).run()


class TestSingleGPU:
    def test_replay_matches_trace_exactly(self, trace):
        """Same batch as the trace: replay uses trace times verbatim."""
        res = _run(trace, parallelism="single")
        assert res.total_time == pytest.approx(trace.total_duration, rel=1e-9)
        assert res.communication_time == 0.0

    def test_batch_scaling_grows_time(self, trace):
        base = _run(trace, parallelism="single").total_time
        double = _run(trace, parallelism="single", batch_size=128).total_time
        assert 1.6 * base < double < 2.4 * base

    def test_per_phase_breakdown(self, trace):
        res = _run(trace, parallelism="single")
        assert set(res.per_phase) == {"forward", "backward", "optimizer"}
        assert res.per_phase["backward"] > res.per_phase["forward"]

    def test_per_layer_breakdown_covers_layers(self, trace):
        res = _run(trace, parallelism="single")
        assert len(res.per_layer) == len(get_model("resnet18").layers)


class TestDDP:
    def test_runs_and_overlaps(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=20e9)
        # Total < serial compute + serial comm (overlap happened).
        assert res.total_time < trace.total_duration + res.communication_time
        assert res.communication_time > 0

    def test_overlap_beats_no_overlap(self, trace):
        on = _run(trace, parallelism="ddp", num_gpus=2,
                  link_bandwidth=5e9, overlap=True).total_time
        off = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=5e9, overlap=False).total_time
        assert on < off

    def test_slower_link_costs_more(self, trace):
        fast = _run(trace, parallelism="ddp", num_gpus=2,
                    link_bandwidth=200e9).total_time
        slow = _run(trace, parallelism="ddp", num_gpus=2,
                    link_bandwidth=2e9).total_time
        assert slow > fast

    def test_per_gpu_busy_symmetric(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=4)
        busys = list(res.per_gpu_busy.values())
        assert len(busys) == 4
        assert max(busys) == pytest.approx(min(busys), rel=1e-6)


class TestDP:
    def test_dp_slower_than_ddp(self, trace):
        dp = _run(trace, parallelism="dp", num_gpus=2,
                  link_bandwidth=20e9).total_time
        ddp = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=20e9).total_time
        assert dp > ddp


class TestTP:
    def test_tp_comm_ratio_higher_than_ddp(self, trace):
        tp = _run(trace, parallelism="tp", num_gpus=2, link_bandwidth=20e9)
        ddp = _run(trace, parallelism="ddp", num_gpus=2, link_bandwidth=20e9)
        assert tp.communication_ratio > ddp.communication_ratio

    def test_tp_shards_reduce_compute(self, trace):
        tp = _run(trace, parallelism="tp", num_gpus=4, link_bandwidth=200e9)
        single = trace.total_duration
        # Per-GPU busy time shrinks relative to single-GPU replay.
        assert max(tp.per_gpu_busy.values()) < single


class TestPP:
    def test_chunks_reduce_time(self, trace):
        c1 = _run(trace, parallelism="pp", num_gpus=2, chunks=1,
                  link_bandwidth=200e9).total_time
        c4 = _run(trace, parallelism="pp", num_gpus=2, chunks=4,
                  link_bandwidth=200e9).total_time
        assert c4 < c1

    def test_one_chunk_close_to_serial(self, trace):
        """A single micro-batch has no pipelining: roughly the single-GPU
        time plus transfers."""
        c1 = _run(trace, parallelism="pp", num_gpus=2, chunks=1,
                  link_bandwidth=200e9).total_time
        assert c1 == pytest.approx(trace.total_duration, rel=0.15)

    def test_stage_gpu_busy_split(self, trace):
        res = _run(trace, parallelism="pp", num_gpus=2, chunks=2,
                   link_bandwidth=200e9)
        assert len(res.per_gpu_busy) == 2


class TestCrossGPU:
    def test_target_gpu_rescales(self, trace):
        a100 = _run(trace, parallelism="single").total_time
        h100 = TrioSim(trace, SimulationConfig(parallelism="single",
                                               gpu="H100")).run().total_time
        assert h100 < a100

    def test_same_gpu_is_noop(self, trace):
        res = TrioSim(trace, SimulationConfig(parallelism="single",
                                              gpu="a100")).run()
        assert res.total_time == pytest.approx(trace.total_duration, rel=1e-9)


class TestResultMetadata:
    def test_wall_time_and_events_recorded(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2)
        assert res.wall_time > 0
        assert res.events > 100

    def test_timeline_optional(self, trace):
        res = TrioSim(trace, SimulationConfig(parallelism="single"),
                      record_timeline=False).run()
        assert res.timeline == []
        assert res.per_layer == {}

    def test_timeline_records_sorted_fields(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2)
        compute = [r for r in res.timeline if r.kind == "compute"]
        transfers = [r for r in res.timeline if r.kind == "transfer"]
        assert compute and transfers
        assert all(r.end >= r.start for r in res.timeline)

    def test_summary_readable(self, trace):
        res = _run(trace, parallelism="single")
        text = res.summary()
        assert "total" in text and "comm" in text


class TestEngineProfile:
    def test_profile_engine_adds_sub_phases(self, trace):
        cfg = SimulationConfig(parallelism="ddp", num_gpus=2)
        res = TrioSim(trace, cfg, record_timeline=False,
                      profile_engine=True).run()
        phases = res.profile["phases"]
        for bucket in ("engine.queue_ops", "engine.handler",
                       "engine.hook_overhead"):
            assert bucket in phases, bucket
            assert phases[bucket] >= 0.0
        # The sub-phases decompose the run loop's time; they cannot
        # exceed the engine phase they instrument (wall-clock sanity,
        # not an exact identity: the loop itself has overhead).
        assert (phases["engine.queue_ops"] + phases["engine.handler"]
                <= phases["engine"] * 1.5 + 1e-3)

    def test_profile_engine_off_by_default(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2)
        assert not any(name.startswith("engine.")
                       for name in res.profile["phases"])

    def test_profile_verify_and_heartbeat_share_one_loop(self, trace):
        # Profile, race detectors and heartbeat all ride the one
        # instrumented loop: together they dispatch exactly what the
        # race detectors alone do, and the profile still fills in.
        cfg = SimulationConfig(parallelism="ddp", num_gpus=4,
                               link_bandwidth=20e9)
        verified = TrioSim(trace, cfg, record_timeline=False, verify=True)
        plain = verified.run()
        beats = []
        combined = TrioSim(trace, cfg, record_timeline=False, verify=True,
                           profile_engine=True, heartbeat=beats.append,
                           heartbeat_every=64)
        result = combined.run()
        assert combined.verify_digest == verified.verify_digest
        assert result.total_time == plain.total_time
        assert result.events == plain.events
        assert len(beats) == result.events // 64
        phases = result.profile["phases"]
        for bucket in ("engine.queue_ops", "engine.handler",
                       "engine.hook_overhead"):
            assert bucket in phases, bucket
        assert phases["engine.queue_ops"] > 0.0
        assert phases["engine.handler"] > 0.0
        assert phases["engine.hook_overhead"] >= 0.0

    def test_profile_engine_does_not_perturb_results(self, trace):
        cfg = SimulationConfig(parallelism="ddp", num_gpus=2,
                               link_bandwidth=20e9)
        plain = TrioSim(trace, cfg, record_timeline=False).run()
        profiled = TrioSim(trace, cfg, record_timeline=False,
                           profile_engine=True).run()
        assert profiled.total_time == plain.total_time
        assert profiled.events == plain.events
