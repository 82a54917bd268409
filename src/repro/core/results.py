"""Simulation results: totals, breakdowns, and the timeline.

TrioSim "can return the total predicted execution time ... the
communication time and computation time of each layer or stage ... [and]
the timeline of the communication process among GPUs or the computation
process on each GPU" (paper §4.1).  :class:`SimulationResult` carries all
of that plus simulator performance counters (Figure 14).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.hooks import HookCtx

#: Version of the serialized result format.  Part of every cache key, so
#: a schema change silently invalidates old cache entries instead of
#: returning mis-shaped results.  v2 added the ``profile`` pipeline
#: breakdown; v3 added the ``network`` routing/congestion summary (v2
#: payloads still load, with an empty summary).
RESULT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class TimelineRecord:
    """One completed task on the simulated timeline (a row of a
    :class:`Timeline`)."""

    name: str
    kind: str            # "compute" | "transfer" | "barrier"
    resource: str        # GPU name, or "src->dst" for transfers
    start: float
    end: float
    phase: Optional[str] = None
    layer: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TimelineRecord":
        return cls(**data)


#: Row field order: the :class:`TimelineRecord` constructor's and the
#: serialized row dict's.
FIELDS = ("name", "kind", "resource", "start", "end", "phase", "layer")
#: The text columns, stored as int32 codes into a per-column vocabulary.
TEXT_FIELDS = ("name", "kind", "resource", "phase", "layer")
#: Row selector for every row.
_ALL = slice(None)
#: Rows materialized per step when iterating a :class:`Timeline`.
_ITER_CHUNK = 4096


class Timeline:
    """The simulated timeline as columns, one row per completed task.

    ``start`` and ``end`` are float64 arrays.  The five text fields are
    int32 codes into per-column vocabularies; a segment cut from a
    timeline, and the shifted copies fold extension makes of it, share
    those vocabularies, so replicating rows copies codes, not strings.
    Rows appended one at a time (the recorder's path) are buffered as
    tuples and folded into the columns on the next columnar read.  A
    :class:`TimelineRecord` is built only when a row is read: by
    indexing (an int or a slice) or by iteration.
    """

    def __init__(self, records: Iterable[TimelineRecord] = ()):
        self._pending: List[tuple] = []
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._codes = {f: np.empty(0, dtype=np.int32) for f in TEXT_FIELDS}
        #: Per text column: value -> code, in code order.
        self._index: Dict[str, dict] = {f: {} for f in TEXT_FIELDS}
        #: Per text column: code -> value.
        self._values: Dict[str, list] = {f: [] for f in TEXT_FIELDS}
        for record in records:
            self.append(record.name, record.kind, record.resource,
                        record.start, record.end, record.phase, record.layer)

    # -- building ------------------------------------------------------
    def append(self, name: str, kind: str, resource: str, start: float,
               end: float, phase: Optional[str] = None,
               layer: Optional[str] = None) -> None:
        """Add one row (fields in :class:`TimelineRecord` order)."""
        self._pending.append((name, kind, resource, start, end, phase, layer))

    def _flush(self) -> None:
        """Move buffered rows into the columns."""
        rows = self._pending
        if not rows:
            return
        self._pending = []
        columns = dict(zip(FIELDS, zip(*rows)))
        self._start = np.concatenate(
            [self._start, np.array(columns["start"], dtype=np.float64)])
        self._end = np.concatenate(
            [self._end, np.array(columns["end"], dtype=np.float64)])
        for field in TEXT_FIELDS:
            self._codes[field] = np.concatenate(
                [self._codes[field], self._encode(field, columns[field])])

    def _encode(self, field: str, values) -> np.ndarray:
        """Codes of *values* in *field*'s vocabulary, growing it."""
        index = self._index[field]
        for value in dict.fromkeys(values):
            if value not in index:
                index[value] = len(index)
                self._values[field].append(value)
        return np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                           count=len(values))

    def extend(self, other: "Timeline") -> None:
        """Append every row of *other*."""
        self._flush()
        other._flush()
        self._start = np.concatenate([self._start, other._start])
        self._end = np.concatenate([self._end, other._end])
        for field in TEXT_FIELDS:
            codes = other._codes[field]
            if other._index[field] is not self._index[field]:
                codes = self._encode(field, other._values[field])[codes]
            self._codes[field] = np.concatenate([self._codes[field], codes])

    def segment(self, lo: int, hi: int) -> "Timeline":
        """Rows ``lo:hi`` as a timeline sharing this one's vocabularies."""
        self._flush()
        part = Timeline.__new__(Timeline)
        part._pending = []
        part._index = self._index
        part._values = self._values
        part._start = self._start[lo:hi]
        part._end = self._end[lo:hi]
        part._codes = {f: c[lo:hi] for f, c in self._codes.items()}
        return part

    def tile(self, start: np.ndarray, end: np.ndarray) -> "Timeline":
        """This timeline's rows repeated ``len(start) // len(self)``
        times, carrying the time columns *start* and *end*.

        The text columns repeat as shared codes; the copy builds no
        record and copies no string.
        """
        count = len(start) // len(self) if len(self) else 0
        if count * len(self) != len(start) or len(end) != len(start):
            raise ValueError(f"{len(start)} start and {len(end)} end times "
                             f"do not tile {len(self)} rows")
        part = self.segment(0, len(self))
        part._start = np.asarray(start, dtype=np.float64)
        part._end = np.asarray(end, dtype=np.float64)
        part._codes = {f: np.tile(c, count) for f, c in part._codes.items()}
        return part

    # -- columnar reads ------------------------------------------------
    @property
    def start(self) -> np.ndarray:
        """Start times, as a read-only view."""
        self._flush()
        return _read_only(self._start)

    @property
    def end(self) -> np.ndarray:
        """End times, as a read-only view."""
        self._flush()
        return _read_only(self._end)

    def durations(self) -> np.ndarray:
        """``end - start`` per row."""
        self._flush()
        return self._end - self._start

    def column(self, field: str, rows=_ALL) -> List[Any]:
        """The values of *field* over *rows*, as a plain list."""
        self._flush()
        if field == "start":
            return self._start[rows].tolist()
        if field == "end":
            return self._end[rows].tolist()
        values = np.empty(len(self._values[field]), dtype=object)
        values[:] = self._values[field]
        return values[self._codes[field][rows]].tolist()

    def where(self, field: str, predicate: Callable[[object], bool]
              ) -> np.ndarray:
        """Boolean row mask: rows whose *field* value satisfies
        *predicate* (evaluated once per distinct value)."""
        self._flush()
        values = self._values[field]
        hits = np.fromiter((bool(predicate(v)) for v in values), dtype=bool,
                           count=len(values))
        return hits[self._codes[field]]

    def _first_seen(self, field: str, rows) -> Tuple[np.ndarray, np.ndarray]:
        """The codes of *field* over *rows*, and the distinct codes among
        them in order of first appearance."""
        self._flush()
        codes = self._codes[field][rows]
        first = np.full(len(self._values[field]), len(codes), dtype=np.int64)
        np.minimum.at(first, codes, np.arange(len(codes)))
        present = np.flatnonzero(first < len(codes))
        return codes, present[np.argsort(first[present], kind="stable")]

    def distinct(self, field: str, rows=_ALL) -> List[Any]:
        """The distinct values of *field* over *rows*, first-seen order."""
        _codes, order = self._first_seen(field, rows)
        values = self._values[field]
        return [values[code] for code in order.tolist()]

    def total_by(self, field: str, rows=_ALL) -> Dict[Any, float]:
        """Summed row durations per value of *field* over *rows*.

        Keys come in first-seen order.  Each sum accumulates in row
        order from 0.0 (``np.bincount`` adds its weights sequentially),
        so it is bit-identical to a Python ``+=`` loop over the rows.
        """
        codes, order = self._first_seen(field, rows)
        sums = np.bincount(codes, weights=self.durations()[rows],
                           minlength=len(self._values[field]))
        values = self._values[field]
        return {values[code]: total
                for code, total in zip(order.tolist(), sums[order].tolist())}

    # -- row view ------------------------------------------------------
    def _records(self, rows) -> List[TimelineRecord]:
        return [TimelineRecord(*row)
                for row in zip(*(self.column(f, rows) for f in FIELDS))]

    def __len__(self) -> int:
        return len(self._start) + len(self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._records(key)
        index = range(len(self))[key]   # normalizes negatives, checks range
        self._flush()
        text = {f: self._values[f][self._codes[f][index]] for f in TEXT_FIELDS}
        return TimelineRecord(start=float(self._start[index]),
                              end=float(self._end[index]), **text)

    def __iter__(self) -> Iterator[TimelineRecord]:
        for lo in range(0, len(self), _ITER_CHUNK):
            yield from self._records(slice(lo, lo + _ITER_CHUNK))

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        if not isinstance(other, Timeline):
            return NotImplemented
        if len(self) != len(other):
            return False
        # Bitwise on the float columns; by value on the text columns.
        if not (np.array_equal(self.start.view(np.uint64),
                               other.start.view(np.uint64))
                and np.array_equal(self.end.view(np.uint64),
                                   other.end.view(np.uint64))):
            return False
        for field in TEXT_FIELDS:
            if self._index[field] is other._index[field]:
                if not np.array_equal(self._codes[field],
                                      other._codes[field]):
                    return False
            elif self.column(field) != other.column(field):
                return False
        return True

    def __repr__(self) -> str:
        return f"Timeline({len(self)} rows)"


def _read_only(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.flags.writeable = False
    return view


class TimelineRecorder:
    """Hook appending each completed task to a :class:`Timeline`."""

    def __init__(self):
        self.records = Timeline()

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != "task_end":
            return
        task = ctx.item
        if task.kind == "compute":
            resource = task.gpu
        elif task.kind == "transfer":
            resource = f"{task.src}->{task.dst}"
        else:
            return  # barriers carry no time
        meta = task.meta
        self.records.append(task.name, task.kind, resource,
                            task.start_time or 0.0, task.end_time or 0.0,
                            meta.get("phase"), meta.get("layer"))


@dataclass
class SimulationResult:
    """Output of one TrioSim run.

    ``compute_time`` and ``communication_time`` are aggregate busy times
    (summed across GPUs / transfers); ``total_time`` is the simulated
    end-to-end iteration time.  ``per_layer`` maps layer name to its total
    compute time across GPUs.  ``wall_time`` and ``events`` report the
    simulator's own performance (paper Figure 14).  ``profile`` is the
    pipeline profiler's per-phase wall breakdown and counters (see
    ``docs/plans.md``); like ``wall_time`` it describes *how* the result
    was produced, so bit-identity comparisons exclude it.  ``network``
    is the flow network's routing/congestion summary — per-link bytes,
    flows, peak concurrency and utilization, flow-completion-time stats,
    and the per-pair path choices on multi-path fabrics (see
    ``docs/network.md``); it is deterministic simulation content and
    *included* in bit-identity comparisons.
    """

    total_time: float
    compute_time: float
    communication_time: float
    per_gpu_busy: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    per_phase: Dict[str, float] = field(default_factory=dict)
    timeline: Timeline = field(default_factory=Timeline)
    wall_time: float = 0.0
    events: int = 0
    iteration_times: List[float] = field(default_factory=list)
    profile: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.timeline, Timeline):
            self.timeline = Timeline(self.timeline)

    @property
    def communication_ratio(self) -> float:
        """Communication share of total busy time (paper Figure 13)."""
        busy = self.compute_time + self.communication_time
        return self.communication_time / busy if busy > 0 else 0.0

    def summary(self) -> str:
        return (
            f"total {self.total_time * 1e3:.2f} ms | "
            f"compute {self.compute_time * 1e3:.2f} ms | "
            f"comm {self.communication_time * 1e3:.2f} ms "
            f"({self.communication_ratio * 100:.1f}%) | "
            f"simulated in {self.wall_time * 1e3:.0f} ms wall, "
            f"{self.events} events"
        )

    # ------------------------------------------------------------------
    # Serialization — the single codepath shared by the CLI, the
    # experiments harness, and the sweep service's result cache.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "total_time": self.total_time,
            "compute_time": self.compute_time,
            "communication_time": self.communication_time,
            "per_gpu_busy": dict(self.per_gpu_busy),
            "per_layer": dict(self.per_layer),
            "per_phase": dict(self.per_phase),
            "timeline": _timeline_rows(self.timeline),
            "wall_time": self.wall_time,
            "events": self.events,
            "iteration_times": list(self.iteration_times),
            "profile": dict(self.profile),
            "network": dict(self.network),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        version = data.get("schema_version")
        # v2 payloads (pre-``network``) still load; the summary is simply
        # absent, which the empty-dict default represents.
        if version not in (2, RESULT_SCHEMA_VERSION):
            raise ValueError(f"unsupported result schema version {version}")
        return cls(
            total_time=data["total_time"],
            compute_time=data["compute_time"],
            communication_time=data["communication_time"],
            per_gpu_busy=dict(data["per_gpu_busy"]),
            per_layer=dict(data["per_layer"]),
            per_phase=dict(data["per_phase"]),
            timeline=_timeline_from_rows(data["timeline"]),
            wall_time=data["wall_time"],
            events=data["events"],
            iteration_times=list(data["iteration_times"]),
            profile=dict(data.get("profile") or {}),
            network=dict(data.get("network") or {}),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string (floats round-trip bit-exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        return cls.from_dict(json.loads(text))


def _timeline_rows(timeline: Timeline) -> List[dict]:
    """The serialized rows: ``TimelineRecord.to_dict`` of each row, read
    straight from the columns."""
    return [{"name": name, "kind": kind, "resource": resource,
             "start": start, "end": end, "phase": phase, "layer": layer}
            for name, kind, resource, start, end, phase, layer
            in zip(*(timeline.column(f) for f in FIELDS))]


def _timeline_from_rows(rows: List[dict]) -> Timeline:
    timeline = Timeline()
    for row in rows:
        timeline.append(row["name"], row["kind"], row["resource"],
                        row["start"], row["end"], row.get("phase"),
                        row.get("layer"))
    return timeline
