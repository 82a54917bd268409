"""The plan/execute split: cacheable extrapolation plans.

Extrapolating a single-GPU trace into a multi-GPU task DAG is pure graph
construction — it depends on the trace and the *parallelism* side of the
config (strategy, GPU count, batch scale, bucketing, schedules) but not on
the *scenario* side (topology, link parameters, faults, iteration count).
Sweeps, however, mostly vary the scenario side, and multi-iteration runs
re-extrapolate the identical iteration graph N times.

This module splits the pipeline accordingly:

* :class:`PlanBuilder` duck-types the graph-construction surface of
  :class:`~repro.core.taskgraph.TaskGraphSimulator`, so any extrapolator's
  :meth:`build` records into a plan instead of a live simulator;
* :class:`ExtrapolationPlan` is the recorded DAG — one iteration's tasks
  with dependency indices, content-keyed by :func:`plan_key`;
* :meth:`ExtrapolationPlan.instantiate_iterations_soa` tiles the plan
  into a live simulator's columnar graph (ID-offset structural clone
  plus fence rows), bit-identical to running the extrapolator directly,
  at a fraction of the cost;
* :class:`PlanCache` is a bounded in-process LRU with optional
  content-addressed on-disk persistence, so sweep points that differ only
  in network/fault parameters — and repeat sweeps, and pool workers —
  share one extrapolation.

The plan key deliberately *excludes* network, topology, host-link, fault,
per-GPU-slowdown, and iteration parameters: those apply at execute time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time as _wall
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.taskgraph import (
    KIND_CODES,
    SOA_BARRIER,
    SimTask,
    SoAGraph,
    TaskGraphSimulator,
)
from repro.trace.trace import Trace, trace_digest

#: Bumped whenever the serialized plan format (or the meaning of a plan
#: key) changes; part of every key, so stale persisted plans are never
#: loaded across format changes.
PLAN_SCHEMA_VERSION = 1

#: Config fields a plan depends on.  Everything else — topology, link
#: bandwidth/latency, routing/routing_seed, oversubscription, host link
#: parameters, gpu_slowdowns, faults, iterations, the fold knobs
#: (fold/fold_warmup/fold_tolerance), network_factory — is an
#: execute-time concern and two configs differing only there share a
#: plan: the extrapolated task graph names logical transfers, and which
#: fabric path carries each one is decided when the network executes it.
PLAN_KEY_FIELDS = (
    "parallelism", "num_gpus", "batch_size", "chunks", "dp_degree",
    "tp_scheme", "pp_schedule", "bucket_bytes", "overlap",
    "collective_scheme", "gpus_per_node", "perf_model",
    "include_host_transfers",
)


class PlanKeyMismatch(ValueError):
    """A pre-built plan was executed under a config it was not built for."""


def plan_invariants(config: SimulationConfig) -> dict:
    """The plan-relevant (iteration-invariant) slice of *config*."""
    return {name: getattr(config, name) for name in PLAN_KEY_FIELDS}


def plan_key(trace: Trace, config: SimulationConfig) -> str:
    """Content key of the plan ``(trace, config)`` would build.

    *trace* must be the **prepared** trace (already cross-GPU rescaled) —
    the same object the extrapolator would consume.  Two (trace, config)
    pairs that extrapolate identically share a key.
    """
    canonical = json.dumps(
        {
            "plan_schema": PLAN_SCHEMA_VERSION,
            "trace": trace_digest(trace),
            "config": plan_invariants(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class PlannedTask:
    """One recorded task: the arguments of an ``add_*`` call plus the
    indices of its dependencies within the plan."""

    __slots__ = ("index", "kind", "name", "gpu", "duration", "priority",
                 "src", "dst", "nbytes", "meta", "deps")

    def __init__(self, index: int, kind: str, name: str,
                 gpu: Optional[str] = None, duration: float = 0.0,
                 priority: int = 0, src: Optional[str] = None,
                 dst: Optional[str] = None, nbytes: float = 0.0,
                 meta: Optional[dict] = None,
                 deps: Tuple[int, ...] = ()):
        self.index = index
        self.kind = kind
        self.name = name
        self.gpu = gpu
        self.duration = duration
        self.priority = priority
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.meta = meta or {}
        self.deps = deps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlannedTask #{self.index} {self.name} ({self.kind})>"


class PlanBuilder:
    """Records an extrapolator's graph-construction calls into a plan.

    Exposes the same ``add_compute`` / ``add_transfer`` / ``add_barrier``
    surface as :class:`~repro.core.taskgraph.TaskGraphSimulator` (each
    returning the recorded :class:`PlannedTask`, usable as a dependency),
    but schedules nothing: compute durations are stored *unscaled* (the
    per-GPU ``compute_scale`` applies at instantiation), and fences are
    an execute-time concern (:meth:`fence` raises).
    """

    def __init__(self):
        self.tasks: List[PlannedTask] = []

    def _record(self, kind: str, name: str, deps: Sequence[PlannedTask],
                **fields) -> PlannedTask:
        task = PlannedTask(
            len(self.tasks), kind, name,
            deps=tuple(dep.index for dep in deps), **fields,
        )
        self.tasks.append(task)
        return task

    def add_compute(self, name: str, gpu: str, duration: float,
                    deps: Sequence[PlannedTask] = (), priority: int = 0,
                    **meta) -> PlannedTask:
        if duration < 0:
            raise ValueError(f"task {name}: negative duration")
        return self._record("compute", name, deps, gpu=gpu,
                            duration=float(duration), priority=priority,
                            meta=meta)

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[PlannedTask] = (), **meta) -> PlannedTask:
        if nbytes < 0:
            raise ValueError(f"task {name}: negative bytes")
        return self._record("transfer", name, deps, src=src, dst=dst,
                            nbytes=float(nbytes), meta=meta)

    def add_barrier(self, name: str, deps: Sequence[PlannedTask] = (),
                    **meta) -> PlannedTask:
        return self._record("barrier", name, deps, meta=meta)

    def fence(self, name: str = "fence") -> PlannedTask:
        raise RuntimeError(
            "plans capture one iteration; fences are inserted at "
            "instantiation time (extrapolators must not call fence)"
        )

    def finish(self, key: str, build_wall: float = 0.0) -> "ExtrapolationPlan":
        return ExtrapolationPlan(self.tasks, key, build_wall=build_wall)


class ExtrapolationPlan:
    """One extrapolated iteration, decoupled from any engine or network.

    Parameters
    ----------
    tasks:
        The recorded tasks, dependency indices pointing backwards.
    key:
        The :func:`plan_key` this plan was built under.
    build_wall:
        Wall seconds the recording build took (profiler bookkeeping).
    """

    def __init__(self, tasks: Sequence[PlannedTask], key: str,
                 build_wall: float = 0.0):
        self.tasks: Tuple[PlannedTask, ...] = tuple(tasks)
        self.key = key
        self.build_wall = build_wall
        self._soa_template: Optional[dict] = None
        has_dependents = [False] * len(self.tasks)
        for task in self.tasks:
            for dep in task.deps:
                has_dependents[dep] = True
        #: Indices of tasks with no dependents within the plan — what an
        #: inter-iteration fence must wait on, in creation order.
        self.terminal_ids: Tuple[int, ...] = tuple(
            i for i, used in enumerate(has_dependents) if not used
        )

    def __len__(self) -> int:
        return len(self.tasks)

    # ------------------------------------------------------------------
    # Execution: columnar (structure-of-arrays) instancing
    # ------------------------------------------------------------------
    def soa_template(self) -> dict:
        """Plan-level columns and CSR dependents, computed once per plan.

        The dependents CSR row of task *d* lists its dependent indices in
        ascending order — creation order — so a release walk starts
        ready dependents in program order.
        """
        tpl = self._soa_template
        if tpl is None:
            tasks = self.tasks
            n = len(tasks)
            indeg = [len(t.deps) for t in tasks]
            deg = [0] * n
            edges = 0
            for t in tasks:
                for d in t.deps:
                    deg[d] += 1
                edges += len(t.deps)
            indptr = [0] * (n + 1)
            running = 0
            for i, d in enumerate(deg):
                running += d
                indptr[i + 1] = running
            indices = [0] * edges
            fill = indptr[:-1].copy()
            for j, t in enumerate(tasks):
                for d in t.deps:
                    indices[fill[d]] = j
                    fill[d] += 1
            tpl = {
                "kind": [KIND_CODES[t.kind] for t in tasks],
                "name": [t.name for t in tasks],
                "gpu": [t.gpu if t.kind == "compute" else None
                        for t in tasks],
                "duration": [t.duration for t in tasks],
                "priority": [t.priority for t in tasks],
                "src": [t.src for t in tasks],
                "dst": [t.dst for t in tasks],
                "nbytes": [t.nbytes for t in tasks],
                "meta": [t.meta for t in tasks],
                "indeg": indeg,
                "deg_np": np.asarray(deg, dtype=np.int64),
                "indices_np": np.asarray(indices, dtype=np.int64),
                "roots": [i for i, d in enumerate(indeg) if d == 0],
                "priorities": {t.priority for t in tasks
                               if t.kind == "compute"},
            }
            self._soa_template = tpl
        return tpl

    def instantiate_iterations_soa(self, sim: TaskGraphSimulator,
                                   count: int = 1,
                                   start: int = 0) -> SoAGraph:
        """Append *count* training iterations to *sim*'s columnar graph.

        The one instancing routine: the unfolded path instances every
        iteration at once, the folded path one warm-up iteration per
        call (draining between calls), and the not-steady fallback the
        rest.  The plan's CSR template is tiled across instances (numpy
        shift-and-concat).  Every iteration numbered ``>= 1`` (numbering
        continues from *start*) is preceded by a fence row named
        ``iteration{i}``: a single row waiting on the previous instance's
        terminals, whose ``release`` lists the next instance's roots.  A
        call that opens with a fence — a continuation — waits on the
        previous call's terminals that have not finished (none, on a
        drained graph, so the fence starts the next run); compute
        durations take *sim*'s per-GPU ``compute_scale``.  Returns the
        graph.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        tpl = self.soa_template()
        n = len(self.tasks)
        if n and not self.terminal_ids:
            raise RuntimeError("plan has tasks but no terminals")
        graph = sim.lower()
        first = graph.size
        block = n + 1
        lead = 1 if start > 0 else 0
        total = count * block - 1 + lead
        sim._unfinished += total
        scale = sim.compute_scale
        durations = tpl["duration"]
        if scale:
            # x * 1.0 is bit-identical to x: compute tasks only.
            durations = [d * scale.get(g, 1.0) if g is not None else d
                         for d, g in zip(durations, tpl["gpu"])]
        queues = [sim._gpus[g] if g is not None else None
                  for g in tpl["gpu"]]
        terminal_ids = self.terminal_ids
        roots = tpl["roots"]
        zero1 = np.zeros(1, dtype=np.int64)
        none_row: list = [None] * n
        neg_row = [-1] * n
        block_columns = {
            "kind": tpl["kind"], "name": tpl["name"], "gpu": tpl["gpu"],
            "duration": durations, "priority": tpl["priority"],
            "src": tpl["src"], "dst": tpl["dst"], "nbytes": tpl["nbytes"],
            "meta": tpl["meta"], "queue": queues, "indegree": tpl["indeg"],
            "release": none_row, "views": none_row,
        }
        columns: Dict[str, list] = {c: [] for c in block_columns}
        columns["fence_link"] = []
        idx_blocks: List[np.ndarray] = []
        deg_blocks: List[np.ndarray] = []
        fences: List[SimTask] = []

        def add_fence(row: int, index: int, waits: int) -> None:
            fence = SimTask(row, f"iteration{index}", "barrier")
            fences.append(fence)
            for column, value in (
                    ("kind", SOA_BARRIER), ("name", fence.name),
                    ("gpu", None), ("duration", 0.0), ("priority", 0),
                    ("src", None), ("dst", None), ("nbytes", 0.0),
                    ("meta", fence.meta), ("queue", None),
                    ("indegree", waits),
                    ("release", [row + 1 + r for r in roots]),
                    ("fence_link", -1), ("views", fence)):
                columns[column].append(value)
            idx_blocks.append(zero1[:0])
            deg_blocks.append(zero1)

        off = first
        if lead:
            waits = [t for t in graph.tail_terminals if graph.end[t] is None]
            for t in waits:
                graph.fence_link[t] = off
            if not waits:
                graph.entry_roots.append(off)
            add_fence(off, start, len(waits))
            off += 1
        else:
            graph.entry_roots.extend(off + r for r in roots)
        for i in range(count):
            for column, values in block_columns.items():
                columns[column].extend(values)
            idx_blocks.append(tpl["indices_np"] + off)
            deg_blocks.append(tpl["deg_np"])
            if i < count - 1:
                link = neg_row.copy()
                for t in terminal_ids:
                    link[t] = off + n
                columns["fence_link"].extend(link)
                add_fence(off + n, start + i + 1, len(terminal_ids))
                off += block
            else:
                columns["fence_link"].extend(neg_row)
        graph.tail_terminals = [off + t for t in terminal_ids]
        indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.concatenate(deg_blocks), out=indptr[1:])
        columns["indices"] = np.concatenate(idx_blocks).tolist()
        graph.append(columns, indptr.tolist(), tpl["priorities"])
        graph.objects.extend(f.task_id for f in fences)
        sim.fences.extend(fences)
        return graph

    # The same entry point under the names external tooling (the
    # benchmark's per-layer tracer) wraps instancing by.
    instantiate = instantiate_iterations = instantiate_iterations_soa

    # ------------------------------------------------------------------
    # Serialization (the on-disk persistence format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        rows = []
        for t in self.tasks:
            if t.kind == "compute":
                rows.append(["c", t.name, t.gpu, t.duration, t.priority,
                             t.meta, list(t.deps)])
            elif t.kind == "transfer":
                rows.append(["t", t.name, t.src, t.dst, t.nbytes,
                             t.meta, list(t.deps)])
            else:
                rows.append(["b", t.name, t.meta, list(t.deps)])
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "key": self.key,
            "tasks": rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExtrapolationPlan":
        version = data.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise ValueError(f"unsupported plan schema version {version}")
        tasks = []
        for index, row in enumerate(data["tasks"]):
            tag = row[0]
            if tag == "c":
                _, name, gpu, duration, priority, meta, deps = row
                tasks.append(PlannedTask(index, "compute", name, gpu=gpu,
                                         duration=duration,
                                         priority=priority, meta=meta,
                                         deps=tuple(deps)))
            elif tag == "t":
                _, name, src, dst, nbytes, meta, deps = row
                tasks.append(PlannedTask(index, "transfer", name, src=src,
                                         dst=dst, nbytes=nbytes, meta=meta,
                                         deps=tuple(deps)))
            elif tag == "b":
                _, name, meta, deps = row
                tasks.append(PlannedTask(index, "barrier", name, meta=meta,
                                         deps=tuple(deps)))
            else:
                raise ValueError(f"unknown plan row tag {tag!r}")
            for dep in tasks[-1].deps:
                # Dependencies must point strictly backwards: a forward,
                # self, or out-of-range reference would corrupt the
                # dependent wiring at instantiation.  Raising ValueError
                # here puts corrupt persisted plans on PlanCache.get's
                # drop-and-rebuild path instead of into a simulation.
                if not isinstance(dep, int) or not 0 <= dep < index:
                    raise ValueError(
                        f"plan row {index} ({tasks[-1].name!r}) has an "
                        f"invalid dependency index {dep!r}: dependencies "
                        "must reference earlier rows"
                    )
        return cls(tasks, data["key"])

    def to_json(self) -> str:
        """Serialize to JSON (floats round-trip bit-exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExtrapolationPlan":
        return cls.from_dict(json.loads(text))


class PlanCache:
    """Bounded LRU of :class:`ExtrapolationPlan` entries, optionally
    persisted to a content-addressed directory.

    Parameters
    ----------
    root:
        Optional directory for on-disk persistence (created on first
        store).  With a root, plans survive process boundaries: pool
        workers and repeat sweeps load instead of re-extrapolating.
    max_entries:
        In-memory LRU bound; plans are large (one entry per task), so the
        default stays small.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root) if root is not None else None
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, ExtrapolationPlan]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.builds = 0

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.plan.json"

    def get(self, key: str) -> Optional[ExtrapolationPlan]:
        """The cached plan for *key* from memory then disk, or ``None``."""
        plan = self._mem.get(key)
        if plan is not None:
            self._mem.move_to_end(key)
            self.memory_hits += 1
            return plan
        if self.root is not None:
            try:
                text = self._path(key).read_text()
            except OSError:
                return None
            try:
                plan = ExtrapolationPlan.from_json(text)
            except (ValueError, KeyError, IndexError):
                # Corrupt or stale-schema entry: drop it, treat as a miss.
                try:
                    self._path(key).unlink()
                except OSError:
                    pass
                return None
            if plan.key != key:
                return None  # content/key mismatch: never trust it
            self.disk_hits += 1
            self._remember(key, plan)
            return plan
        return None

    def put(self, key: str, plan: ExtrapolationPlan) -> None:
        """Cache *plan* under *key* in memory and (if rooted) on disk."""
        if plan.key != key:
            raise PlanKeyMismatch(
                f"plan keyed {plan.key[:12]}… cannot be stored as {key[:12]}…"
            )
        self._remember(key, plan)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(plan.to_json())
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _remember(self, key: str, plan: ExtrapolationPlan) -> None:
        self._mem[key] = plan
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def get_or_build(self, key: str,
                     build: Callable[[], ExtrapolationPlan]
                     ) -> Tuple[ExtrapolationPlan, str]:
        """The plan for *key*, building (and caching) on a miss.

        Returns ``(plan, source)`` with source one of ``"memory"``,
        ``"disk"``, or ``"built"``.
        """
        before_disk = self.disk_hits
        plan = self.get(key)
        if plan is not None:
            return plan, ("disk" if self.disk_hits > before_disk
                          else "memory")
        started = _wall.perf_counter()
        plan = build()
        plan.build_wall = _wall.perf_counter() - started
        self.builds += 1
        self.put(key, plan)
        return plan, "built"

    def __len__(self) -> int:
        return len(self._mem)

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "builds": self.builds,
            "entries": len(self._mem),
        }
