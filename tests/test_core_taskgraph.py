"""Tests for the task-graph simulator."""

import pytest

from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.topology import ring


def _sim(n=2, bandwidth=100.0):
    engine = Engine()
    return TaskGraphSimulator(engine, FlowNetwork(engine, ring(n, bandwidth)))


class TestCompute:
    def test_sequential_chain(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 2.0, deps=[a])
        total = sim.run()
        assert total == pytest.approx(3.0)
        assert b.start_time == pytest.approx(1.0)

    def test_gpu_serializes_independent_tasks(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu0", 1.0)
        assert sim.run() == pytest.approx(2.0)

    def test_different_gpus_run_in_parallel(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu1", 1.0)
        assert sim.run() == pytest.approx(1.0)

    def test_fifo_creation_order(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 1.0)
        sim.run()
        assert a.end_time <= b.start_time

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            _sim().add_compute("a", "gpu0", -1.0)

    def test_busy_time_accounting(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.5)
        sim.add_compute("b", "gpu1", 0.5)
        sim.run()
        assert sim.gpu_busy_time("gpu0") == pytest.approx(1.5)
        assert sim.gpu_busy_time("gpu1") == pytest.approx(0.5)
        assert sim.compute_task_time == pytest.approx(2.0)


class TestTransfers:
    def test_transfer_uses_network(self):
        sim = _sim(bandwidth=100.0)
        sim.add_transfer("x", "gpu0", "gpu1", 200.0)
        assert sim.run() == pytest.approx(2.0)

    def test_transfer_overlaps_compute(self):
        """Communication runs concurrently with computation — the basis
        of DDP overlap in the simulation."""
        sim = _sim(bandwidth=100.0)
        sim.add_compute("c", "gpu0", 2.0)
        sim.add_transfer("x", "gpu0", "gpu1", 200.0)
        assert sim.run() == pytest.approx(2.0)
        assert sim.comm_task_time == pytest.approx(2.0)

    def test_comm_accounting(self):
        sim = _sim()
        sim.add_transfer("x", "gpu0", "gpu1", 100.0)
        sim.run()
        assert sim.comm_bytes == 100.0


class TestBarriersAndDeps:
    def test_barrier_joins(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu1", 3.0)
        bar = sim.add_barrier("join", deps=[a, b])
        c = sim.add_compute("c", "gpu0", 1.0, deps=[bar])
        assert sim.run() == pytest.approx(4.0)
        assert c.start_time == pytest.approx(3.0)

    def test_fan_out(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu0", 1.0, deps=[a])
        sim.add_compute("c", "gpu1", 1.0, deps=[a])
        assert sim.run() == pytest.approx(2.0)

    def test_dep_on_finished_task_allowed(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        sim.run()
        b = sim.add_compute("b", "gpu0", 1.0, deps=[a])
        total = sim.run()
        assert b.done
        assert total == pytest.approx(2.0)

    def test_long_barrier_chain_no_recursion_error(self):
        sim = _sim()
        prev = sim.add_barrier("b0")
        for i in range(1, 5000):
            prev = sim.add_barrier(f"b{i}", deps=[prev])
        assert sim.run() == 0.0

    def test_cycle_detected(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 1.0, deps=[a])
        # Manually create a cycle (the public API cannot).
        b.dependents.append(a)
        a.remaining_deps += 1
        with pytest.raises(RuntimeError):
            sim.run()


class TestHooks:
    def test_task_lifecycle_hooks(self):
        events = []

        class Hook:
            def func(self, ctx):
                events.append((ctx.pos, ctx.item.name))

        sim = _sim()
        sim.accept_hook(Hook())
        sim.add_compute("a", "gpu0", 1.0)
        sim.run()
        assert ("task_start", "a") in events
        assert ("task_end", "a") in events


class TestLowering:
    """Graphs built with ``add_*`` run on the columnar scheduler."""

    def test_rows_are_the_callers_tasks(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_transfer("b", "gpu0", "gpu1", 100.0, deps=[a])
        graph = sim.lower()
        assert graph.size == 2 and graph.views == [a, b]
        assert graph.indegree == [0, 1]
        assert graph.successors(0) == [1]
        assert graph.entry_roots == [0]

    def test_times_written_back_without_hooks(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        fence = sim.fence("iteration1")
        b = sim.add_compute("b", "gpu1", 2.0)
        assert sim.run() == pytest.approx(3.0)
        assert (a.start_time, a.end_time) == (0.0, 1.0)
        assert fence.end_time == pytest.approx(1.0)
        assert b.start_time == pytest.approx(1.0)

    def test_dependent_of_lowered_unfinished_task_rejected(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        sim.lower()
        with pytest.raises(RuntimeError, match="already lowered"):
            sim.add_compute("b", "gpu0", 1.0, deps=[a])

    def test_foreign_dependent_rejected(self):
        sim, other = _sim(), _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        a.dependents.append(other.add_compute("x", "gpu0", 1.0))
        with pytest.raises(RuntimeError, match="not a task of this"):
            sim.run()


class TestPlanSegments:
    """Continuation segments replay the all-upfront schedule."""

    @pytest.fixture(scope="class")
    def plan(self):
        from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model

        trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"),
                                              batch_size=16)
        return TrioSim(trace, SimulationConfig(parallelism="ddp",
                                               num_gpus=2),
                       record_timeline=False).build_plan()

    def _fence_times(self, sim):
        return [(f.name, f.task_id, f.end_time) for f in sim.fences]

    def test_drained_segments_match_upfront(self, plan):
        upfront = _sim(bandwidth=25e9)
        plan.instantiate_iterations_soa(upfront, 3)
        total = upfront.run()
        segmented = _sim(bandwidth=25e9)
        for index in range(3):
            plan.instantiate_iterations_soa(segmented, 1, start=index)
            end = segmented.run()
        assert end == total
        assert self._fence_times(segmented) == self._fence_times(upfront)
        assert segmented.engine.dispatched_events == \
            upfront.engine.dispatched_events

    def test_undrained_continuation_waits_for_terminals(self, plan):
        upfront = _sim(bandwidth=25e9)
        plan.instantiate_iterations_soa(upfront, 2)
        total = upfront.run()
        queued = _sim(bandwidth=25e9)
        plan.instantiate_iterations_soa(queued, 1)
        plan.instantiate_iterations_soa(queued, 1, start=1)
        assert queued.run() == total
        assert self._fence_times(queued) == self._fence_times(upfront)
