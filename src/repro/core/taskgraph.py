"""Task-graph execution on the event engine.

The trace extrapolator expresses a multi-GPU execution as a DAG of tasks:

* **compute** tasks occupy one GPU's compute queue for a known duration
  (predicted by the performance model or taken from the trace);
* **transfer** tasks move bytes through the network model and take however
  long the network says (bandwidth sharing included);
* **barrier** tasks are zero-cost joins used to fan dependencies in/out.

Each GPU executes one compute task at a time, picking ready tasks in
creation order (the extrapolator creates tasks in program order, so this
reproduces the issue order of the framework being modelled).  Transfers
run concurrently with compute — which is exactly how communication/
computation overlap (DDP, GPipe) arises in the simulation, rather than
being an analytical correction.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.engine import CallbackEvent, Engine
from repro.engine.hooks import HookCtx, Hookable
from repro.network.base import NetworkModel

HOOK_TASK_START = "task_start"
HOOK_TASK_END = "task_end"

#: Kind codes of the columnar (structure-of-arrays) scheduler.
SOA_COMPUTE, SOA_TRANSFER, SOA_BARRIER = 0, 1, 2
KIND_NAMES = ("compute", "transfer", "barrier")
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}


@dataclass
class SimTask:
    """One node of the execution DAG."""

    task_id: int
    name: str
    kind: str                       # "compute" | "transfer" | "barrier"
    gpu: Optional[str] = None       # compute tasks
    duration: float = 0.0           # compute tasks
    priority: int = 0               # lower runs first among ready tasks
    src: Optional[str] = None       # transfer tasks
    dst: Optional[str] = None
    nbytes: float = 0.0
    meta: dict = field(default_factory=dict)
    remaining_deps: int = 0
    dependents: List["SimTask"] = field(default_factory=list)
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.end_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimTask {self.name} ({self.kind})>"


class _GPUQueue:
    """FIFO compute queue of one GPU: one task (row id) in flight at a
    time."""

    def __init__(self):
        self.ready: list = []
        self.running = None
        self.busy_time = 0.0


class SoAGraph:
    """Columnar (structure-of-arrays) execution state of one simulator.

    Every task the simulator runs is a row: blocks of rows are appended
    by :meth:`repro.core.plan.ExtrapolationPlan.
    instantiate_iterations_soa` and by :meth:`TaskGraphSimulator.lower`
    (which lowers tasks built with ``add_*``).  A row's index is its
    ``task_id``; dependents are CSR (``indptr``/``indices``), dependency
    counts live in ``indegree``.  Columns are plain lists: CPython list
    indexing beats per-element numpy access in the scalar dispatch loop.

    Inter-iteration fences are single rows: each terminal of instance
    *i* carries a ``fence_link`` to its fence, and the fence's
    ``release`` entry lists the next instance's root tasks — so a fence
    completing releases an iteration in O(roots) instead of walking
    every task of the instance (non-root tasks hold within-instance
    dependencies and cannot start before a root chain reaches them).

    :class:`SimTask` views are materialized lazily — only when hooks
    need an object to observe — from the columns; lowered ``add_*``
    tasks and plan fences are their own views, and get their start and
    end times written back after every drain.
    """

    __slots__ = ("kind", "name", "gpu", "duration", "priority", "src",
                 "dst", "nbytes", "meta", "queue", "indegree", "indptr",
                 "indices", "fence_link", "release", "start", "end",
                 "views", "size", "entry_roots", "objects",
                 "tail_terminals", "priorities", "uniform_priority",
                 "batched_send")

    def __init__(self, batched_send: bool = False):
        self.kind: list = []
        self.name: list = []
        self.gpu: list = []
        self.duration: list = []
        self.priority: list = []
        self.src: list = []
        self.dst: list = []
        self.nbytes: list = []
        self.meta: list = []
        self.queue: list = []
        self.indegree: list = []
        self.fence_link: list = []
        self.release: list = []
        self.start: list = []
        self.end: list = []
        self.views: list = []
        self.indptr: list = [0]
        self.indices: list = []
        self.size = 0
        #: Rows to start at the next :meth:`TaskGraphSimulator.run`.
        self.entry_roots: list = []
        #: Rows whose views are caller-visible objects (lowered tasks,
        #: plan fences) awaiting the post-drain time write-back.
        self.objects: list = []
        #: Terminal rows of the last instanced plan block — what a
        #: continuation's leading fence waits on.
        self.tail_terminals: list = []
        #: Distinct compute priorities; with at most one, dispatch picks
        #: the lowest row id without a key function.
        self.priorities: set = set()
        self.uniform_priority = True
        #: Whether the network's ``send`` accepts ``pending=`` (delivery
        #: events appended for one bulk submission per release wave).
        self.batched_send = batched_send

    #: Columns extended together by :meth:`append` (``indices`` holds
    #: one entry per edge, the rest one per row).
    _COLUMNS = ("kind", "name", "gpu", "duration", "priority", "src", "dst",
                "nbytes", "meta", "queue", "indegree", "fence_link",
                "release", "start", "end", "views", "indices")

    def append(self, columns: dict, indptr: list, priorities: set) -> None:
        """Append one block of rows.

        *columns* maps each name in ``_COLUMNS`` to the block's values
        (``start`` / ``end`` / ``views`` default to ``None`` rows; the
        lists are adopted, not copied, when the graph is empty).
        ``columns["indices"]`` holds the block's CSR targets as global
        rows, *indptr* its local row pointers (starting at 0), and
        *priorities* its distinct compute priorities.
        """
        count = len(columns["kind"])
        for column in ("start", "end", "views"):
            columns.setdefault(column, [None] * count)
        if self.size:
            for column in self._COLUMNS:
                getattr(self, column).extend(columns[column])
            edges = self.indptr[-1]
            self.indptr.extend([p + edges for p in indptr[1:]])
        else:
            for column in self._COLUMNS:
                setattr(self, column, columns[column])
            self.indptr = indptr
        self.size += count
        self.priorities |= priorities
        self.uniform_priority = len(self.priorities) <= 1

    def successors(self, tid: int) -> list:
        """Rows *tid*'s completion releases: its CSR dependents, then its
        fence (a terminal) or the roots it releases (a fence)."""
        out = self.indices[self.indptr[tid]:self.indptr[tid + 1]]
        link = self.fence_link[tid]
        if link >= 0:
            out.append(link)
        elif self.release[tid] is not None:
            out.extend(self.release[tid])
        return out

    def view(self, tid: int) -> SimTask:
        """The lazily-materialized :class:`SimTask` view of *tid*."""
        task = self.views[tid]
        if task is None:
            task = SimTask.__new__(SimTask)
            task.__dict__ = {
                "task_id": tid,
                "name": self.name[tid],
                "kind": KIND_NAMES[self.kind[tid]],
                "gpu": self.gpu[tid],
                "duration": self.duration[tid],
                "priority": self.priority[tid],
                "src": self.src[tid],
                "dst": self.dst[tid],
                "nbytes": self.nbytes[tid],
                "meta": self.meta[tid],
                "remaining_deps": 0,
                "dependents": [],
                "start_time": self.start[tid],
                "end_time": self.end[tid],
            }
            self.views[tid] = task
        return task


class TaskGraphSimulator(Hookable):
    """Executes a task DAG over GPUs and a network model.

    Build the graph with :meth:`add_compute` / :meth:`add_transfer` /
    :meth:`add_barrier` (or instance a plan into :attr:`columns`), then
    call :meth:`run`.  Dependencies are given at creation time; a task
    becomes ready when all its dependencies finish.  Every task runs on
    the columnar scheduler: ``run`` first lowers the ``add_*`` tasks
    into :attr:`columns`.
    """

    def __init__(self, engine: Engine, network: NetworkModel):
        super().__init__()
        self.engine = engine
        self.network = network
        #: Tasks built with ``add_*`` (the caller's own objects).
        self.tasks: List[SimTask] = []
        self._gpus: Dict[str, _GPUQueue] = defaultdict(_GPUQueue)
        self._lowered = 0
        self._unfinished = 0
        self._fence: Optional[SimTask] = None
        self.fences: List[SimTask] = []
        #: Per-GPU compute-duration multipliers (>= 1 slows a device) —
        #: heterogeneous/straggler systems without touching extrapolators.
        self.compute_scale: Dict[str, float] = {}
        #: Optional ``(gpu, now) -> multiplier`` consulted at dispatch time
        #: — transient stragglers whose factor depends on *when* a task
        #: runs, not just where.  ``None`` (the default) costs one check.
        self.runtime_compute_scale: Optional[Callable[[str, float], float]] = None
        self.comm_task_time = 0.0
        self.comm_bytes = 0.0
        try:
            batched = "pending" in inspect.signature(network.send).parameters
        except (TypeError, ValueError):  # builtins / odd callables
            batched = False
        #: Every task of this simulator, as rows (see :class:`SoAGraph`).
        self.columns = SoAGraph(batched_send=batched)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _new_task(self, name: str, kind: str,
                  deps: Sequence[SimTask], **fields) -> SimTask:
        lowered = self.columns.size
        # Ids are rows: tasks awaiting lowering take the rows after the
        # columnar graph's.
        task = SimTask(lowered + len(self.tasks) - self._lowered, name, kind,
                       **fields)
        live_deps = 0
        all_deps = list(deps)
        if self._fence is not None:
            all_deps.append(self._fence)
        for dep in all_deps:
            if dep.done:
                continue
            if dep.task_id < lowered:
                raise RuntimeError(
                    f"task {name!r} depends on {dep.name!r}, which is "
                    "already lowered for execution and not finished; add "
                    "its dependents before analysing or running the graph"
                )
            dep.dependents.append(task)
            live_deps += 1
        task.remaining_deps = live_deps
        self.tasks.append(task)
        self._unfinished += 1
        return task

    def fence(self, name: str = "fence") -> SimTask:
        """Insert a global synchronization point.

        The fence completes when every task created so far has finished,
        and every task created *afterwards* implicitly depends on it.
        This is how multi-iteration training is simulated: one
        extrapolated iteration per fence interval.  With nothing left
        to wait on, the fence falls back to the previous fence so
        consecutive fences still order correctly.
        """
        terminals = [t for t in self.tasks if not t.dependents and not t.done]
        previous_fence = self._fence
        self._fence = None  # the fence itself only depends on terminals
        fence = self.add_barrier(name, deps=terminals or
                                 ([previous_fence] if previous_fence else []))
        self._fence = fence
        self.fences.append(fence)
        return fence

    def add_compute(self, name: str, gpu: str, duration: float,
                    deps: Sequence[SimTask] = (), priority: int = 0,
                    **meta) -> SimTask:
        """A compute task of known *duration* pinned to *gpu* (scaled by
        the GPU's entry in :attr:`compute_scale`, if any).

        ``priority`` breaks ties among simultaneously-ready tasks on the
        same GPU (lower first, then creation order) — how schedule
        variants like 1F1B impose their issue order.
        """
        if duration < 0:
            raise ValueError(f"task {name}: negative duration")
        duration = float(duration) * self.compute_scale.get(gpu, 1.0)
        task = self._new_task(name, "compute", deps, gpu=gpu,
                              duration=duration, priority=priority, meta=meta)
        return task

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[SimTask] = (), **meta) -> SimTask:
        """A network transfer of *nbytes* from *src* to *dst*."""
        if nbytes < 0:
            raise ValueError(f"task {name}: negative bytes")
        return self._new_task(name, "transfer", deps, src=src, dst=dst,
                              nbytes=float(nbytes), meta=meta)

    def add_barrier(self, name: str, deps: Sequence[SimTask] = (), **meta) -> SimTask:
        """A zero-cost join node."""
        return self._new_task(name, "barrier", deps, meta=meta)

    def lower(self) -> SoAGraph:
        """Lower the ``add_*`` tasks built since the last call into
        :attr:`columns` and return the columnar graph.

        ``indegree`` is each task's ``remaining_deps``, the CSR keeps the
        order of its ``dependents`` list (so release order is creation
        order), and the caller's :class:`SimTask` objects become the
        rows' views.  Tasks with no pending dependency start at the next
        :meth:`run`.
        """
        graph = self.columns
        tasks = self.tasks[self._lowered:]
        if not tasks:
            return graph
        self._lowered = len(self.tasks)
        first = graph.size
        end = first + len(tasks)
        indptr = [0]
        indices: list = []
        for task in tasks:
            for dependent in task.dependents:
                row = dependent.task_id
                known = (tasks[row - first] if first <= row < end
                         else graph.views[row] if 0 <= row < first
                         else None)
                if known is not dependent:
                    raise RuntimeError(
                        f"task {task.name!r} lists {dependent.name!r} as a "
                        "dependent, but it is not a task of this simulator")
                indices.append(row)
            indptr.append(len(indices))
        gpus = [t.gpu if t.kind == "compute" else None for t in tasks]
        graph.append({
            "kind": [KIND_CODES[t.kind] for t in tasks],
            "name": [t.name for t in tasks],
            "gpu": gpus,
            "duration": [t.duration for t in tasks],
            "priority": [t.priority for t in tasks],
            "src": [t.src for t in tasks],
            "dst": [t.dst for t in tasks],
            "nbytes": [t.nbytes for t in tasks],
            "meta": [t.meta for t in tasks],
            "queue": [self._gpus[g] if g is not None else None
                      for g in gpus],
            "indegree": [t.remaining_deps for t in tasks],
            "fence_link": [-1] * len(tasks),
            "release": [None] * len(tasks),
            "start": [t.start_time for t in tasks],
            "end": [t.end_time for t in tasks],
            "views": tasks,
            "indices": indices,
        }, indptr, {t.priority for t in tasks if t.kind == "compute"})
        graph.objects.extend(range(first, end))
        graph.entry_roots.extend(
            first + i for i, t in enumerate(tasks)
            if t.remaining_deps == 0 and not t.done)
        return graph

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Dispatch the DAG; returns the finish time of the last task."""
        graph = self.lower()
        roots, graph.entry_roots = graph.entry_roots, []
        pending: list = []
        for tid in roots:
            self._start_soa(tid, pending)
        if pending:
            self.engine.schedule_bulk(pending)
        self.engine.run()
        start, end, views = graph.start, graph.end, graph.views
        for tid in graph.objects:
            task = views[tid]
            task.start_time = start[tid]
            task.end_time = end[tid]
        graph.objects = []
        if self._unfinished:
            stuck = [graph.name[t] for t in range(graph.size)
                     if end[t] is None][:10]
            raise RuntimeError(
                f"{self._unfinished} tasks never became ready "
                f"(dependency cycle?); e.g. {stuck}"
            )
        return max(end) if graph.size else self.engine.now

    def _start_soa(self, tid: int, pending: list) -> None:
        soa = self.columns
        kind = soa.kind[tid]
        if kind == SOA_COMPUTE:
            queue = soa.queue[tid]
            queue.ready.append(tid)
            if queue.running is None:
                self._dispatch_soa(queue, pending)
        elif kind == SOA_TRANSFER:
            # engine._now read directly: the .now property costs a
            # descriptor call per event on this path.
            now = self.engine._now
            soa.start[tid] = now
            if self._hooks:
                view = soa.view(tid)
                view.start_time = now
                self.invoke_hooks(HookCtx(HOOK_TASK_START, now, view))
            if soa.batched_send:
                self.network.send(soa.src[tid], soa.dst[tid],
                                  soa.nbytes[tid],
                                  lambda _t, t=tid: self._finish_soa(t),
                                  tag=soa.name[tid], pending=pending)
            else:
                # Networks without batched delivery schedule directly;
                # flushing first keeps the event-creation order (and so
                # the seq order) that of a schedule-as-you-walk
                # dispatcher.
                if pending:
                    self.engine.schedule_bulk(pending)
                    del pending[:]
                self.network.send(soa.src[tid], soa.dst[tid],
                                  soa.nbytes[tid],
                                  lambda _t, t=tid: self._finish_soa(t),
                                  tag=soa.name[tid])
        else:  # barrier / fence
            now = self.engine._now
            soa.start[tid] = now
            pending.append(CallbackEvent(
                now + 0.0, lambda _ev, t=tid: self._finish_soa(t)))

    def _dispatch_soa(self, queue: _GPUQueue, pending: list) -> None:
        ready = queue.ready
        if not ready:
            return
        soa = self.columns
        if soa.uniform_priority:
            # min() over plain ints: row ids ascend in creation order,
            # so this is the (priority, task_id) key.
            tid = min(ready)
        else:
            priority = soa.priority
            tid = min(ready, key=lambda t: (priority[t], t))
        ready.remove(tid)
        queue.running = tid
        now = self.engine._now
        soa.start[tid] = now
        if self._hooks:
            view = soa.view(tid)
            view.start_time = now
            self.invoke_hooks(HookCtx(HOOK_TASK_START, now, view))
        duration = soa.duration[tid]
        scale = self.runtime_compute_scale
        if scale is not None:
            duration *= scale(soa.gpu[tid], now)
        pending.append(CallbackEvent(
            now + duration, lambda _ev, t=tid: self._finish_soa(t)))

    def _finish_soa(self, tid: int) -> None:
        soa = self.columns
        now = self.engine._now
        soa.end[tid] = now
        self._unfinished -= 1
        if self._hooks:
            view = soa.view(tid)
            view.start_time = soa.start[tid]
            view.end_time = now
            self.invoke_hooks(HookCtx(HOOK_TASK_END, now, view))
        pending: list = []
        kind = soa.kind[tid]
        if kind == SOA_COMPUTE:
            queue = soa.queue[tid]
            queue.busy_time += now - soa.start[tid]
            queue.running = None
            self._dispatch_soa(queue, pending)
        elif kind == SOA_TRANSFER:
            self.comm_task_time += now - soa.start[tid]
            self.comm_bytes += soa.nbytes[tid]
        indptr = soa.indptr
        lo = indptr[tid]
        hi = indptr[tid + 1]
        if lo != hi:
            indices = soa.indices
            indegree = soa.indegree
            for k in range(lo, hi):
                rid = indices[k]
                left = indegree[rid] - 1
                indegree[rid] = left
                if not left:
                    self._start_soa(rid, pending)
        link = soa.fence_link[tid]
        if link >= 0:
            left = soa.indegree[link] - 1
            soa.indegree[link] = left
            if not left:
                self._start_soa(link, pending)
        else:
            release = soa.release[tid]
            if release is not None:
                for rid in release:
                    self._start_soa(rid, pending)
        if pending:
            self.engine.schedule_bulk(pending)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def gpu_busy_time(self, gpu: str) -> float:
        return self._gpus[gpu].busy_time

    def add_busy_time(self, gpu: str, seconds: float) -> None:
        """Credit *seconds* of compute busy time to *gpu* without running
        a task — the iteration-folding counter extension (the folded tail
        dispatches no events but its compute time is known exactly)."""
        self._gpus[gpu].busy_time += seconds

    @property
    def unfinished_tasks(self) -> int:
        """Tasks not yet finished (drains to 0 as the run completes)."""
        return self._unfinished

    @property
    def gpus_seen(self) -> List[str]:
        return sorted(self._gpus)

    @property
    def compute_task_time(self) -> float:
        return sum(q.busy_time for q in self._gpus.values())
