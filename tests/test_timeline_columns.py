"""Tests for the columnar timeline (:class:`repro.core.results.Timeline`).

The container stores ``start``/``end`` as float64 columns and the text
fields as shared codes; a :class:`TimelineRecord` exists only when a row
is read.  Fold extension replicates the last warm-up slice as vector
adds, and result assembly sums durations per layer/phase with
``np.bincount`` -- both must reproduce the row-by-row arithmetic bit for
bit.
"""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.core.simulator as simulator
from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult, Timeline, TimelineRecord
from repro.core.simulator import TrioSim
from repro.core.timeline import shift_records, timeline_to_events
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads import get_model


def _rows():
    return [
        TimelineRecord("a", "compute", "gpu0", 0.0, 1.0, "forward", "L1"),
        TimelineRecord("x", "transfer", "gpu0->gpu1", 0.5, 1.5, None, "L2"),
        TimelineRecord("b", "compute", "gpu1", 1.0, 2.5, "backward", "L2"),
        TimelineRecord("c", "compute", "gpu0", 2.5, 2.75, None, None),
        TimelineRecord("a", "compute", "gpu1", 3.0, 3.1, "forward", "L1"),
    ]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


# ----------------------------------------------------------------------
# The container API
# ----------------------------------------------------------------------


class TestContainer:
    def test_empty(self):
        timeline = Timeline()
        assert len(timeline) == 0
        assert not timeline
        assert list(timeline) == []
        assert timeline == []
        assert timeline == Timeline()

    def test_int_and_negative_indexing(self):
        rows = _rows()
        timeline = Timeline(rows)
        for index in range(-len(rows), len(rows)):
            assert timeline[index] == rows[index]
            assert type(timeline[index].start) is float
        with pytest.raises(IndexError):
            timeline[len(rows)]
        with pytest.raises(IndexError):
            timeline[-len(rows) - 1]

    def test_slice_indexing(self):
        rows = _rows()
        timeline = Timeline(rows)
        for key in (slice(None), slice(1, 3), slice(-2, None),
                    slice(None, None, 2), slice(4, 0, -1), slice(3, 1)):
            assert timeline[key] == rows[key]

    def test_iteration_len_bool(self):
        rows = _rows()
        timeline = Timeline(rows)
        assert list(timeline) == rows
        assert len(timeline) == len(rows)
        assert timeline

    def test_iteration_spans_chunks(self):
        rows = [TimelineRecord(f"t{i}", "compute", f"gpu{i % 3}",
                               float(i), i + 0.5) for i in range(9000)]
        assert list(Timeline(rows)) == rows

    def test_equality_with_timeline_and_list(self):
        rows = _rows()
        timeline = Timeline(rows)
        assert timeline == Timeline(rows)
        assert timeline == rows
        assert rows == timeline          # reflected through Timeline.__eq__
        assert timeline != rows[:-1]
        assert timeline != Timeline(rows[:-1])
        renamed = rows[:2] + [replace(rows[2], name="z")] + rows[3:]
        assert timeline != Timeline(renamed)
        assert timeline != renamed

    def test_equality_is_bitwise_on_times(self):
        rows = _rows()
        nudged = list(rows)
        nudged[1] = TimelineRecord("x", "transfer", "gpu0->gpu1",
                                   np.nextafter(0.5, 1.0), 1.5, None, "L2")
        assert Timeline(rows) != Timeline(nudged)
        signed = [TimelineRecord("z", "compute", "gpu0", 0.0, 1.0)]
        negative = [TimelineRecord("z", "compute", "gpu0", -0.0, 1.0)]
        assert Timeline(signed) != Timeline(negative)

    def test_time_columns_are_read_only(self):
        timeline = Timeline(_rows())
        with pytest.raises(ValueError):
            timeline.start[0] = 9.0
        with pytest.raises(ValueError):
            timeline.end[0] = 9.0
        assert timeline[0] == _rows()[0]

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Timeline())

    def test_extend_with_foreign_vocabulary(self):
        rows = _rows()
        head, tail = Timeline(rows[3:]), Timeline(rows[:3])
        head.extend(tail)
        assert list(head) == rows[3:] + rows[:3]

    def test_segment_and_tile(self):
        rows = _rows()
        timeline = Timeline(rows)
        part = timeline.segment(1, 4)
        assert list(part) == rows[1:4]
        copies = part.tile(np.concatenate([part.start, part.start + 10.0]),
                           np.concatenate([part.end, part.end + 10.0]))
        assert [r.name for r in copies] == [r.name for r in rows[1:4]] * 2
        assert copies[3].start == rows[1].start + 10.0
        with pytest.raises(ValueError):
            part.tile(part.start[:2], part.end[:2])

    def test_pickle_round_trip(self):
        timeline = Timeline(_rows())
        assert pickle.loads(pickle.dumps(timeline)) == timeline

    def test_result_coerces_a_list(self):
        result = SimulationResult(1.0, 0.5, 0.5, timeline=_rows())
        assert isinstance(result.timeline, Timeline)
        assert result.timeline == _rows()


class TestColumnarReads:
    def test_total_by_matches_sequential_sum_in_first_seen_order(self):
        # "L2" is first seen on a transfer row, which the mask drops, so
        # among compute rows "L1" comes first: keys follow the selected
        # rows, not the order values entered the vocabulary.
        rows = [TimelineRecord("x", "transfer", "gpu0->gpu1", 0.0, 0.5,
                               None, "L2")] + _rows()
        timeline = Timeline(rows)
        compute = timeline.where("kind", lambda kind: kind == "compute")
        got = timeline.total_by("layer",
                                compute & timeline.where("layer", bool))
        want = {}
        for r in rows:
            if r.kind == "compute" and r.layer:
                want[r.layer] = want.get(r.layer, 0.0) + r.duration
        assert list(got.items()) == list(want.items())
        assert list(got) == ["L1", "L2"]

    def test_distinct_first_seen(self):
        timeline = Timeline(_rows())
        assert timeline.distinct("resource") == ["gpu0", "gpu0->gpu1", "gpu1"]
        assert timeline.distinct("phase") == ["forward", None, "backward"]

    def test_shift_records_one_block_per_offset(self):
        rows = _rows()
        shifted = shift_records(Timeline(rows), [1.0, 0.25])
        assert list(shifted) == [replace(r, start=r.start + off,
                                         end=r.end + off)
                                 for off in (1.0, 0.25) for r in rows]
        assert shift_records(Timeline(rows), []) == []

    def test_events_from_list_and_timeline_agree(self):
        rows = _rows()
        assert timeline_to_events(rows) == timeline_to_events(Timeline(rows))

    def test_serialized_rows_are_asdict_rows(self):
        result = SimulationResult(1.0, 0.5, 0.5, timeline=_rows())
        rows = result.to_dict()["timeline"]
        assert json.dumps(rows) == json.dumps([r.to_dict() for r in _rows()])
        assert SimulationResult.from_dict(result.to_dict()).timeline == _rows()


# ----------------------------------------------------------------------
# Invariants of a simulated run
# ----------------------------------------------------------------------


def _folded_config(**overrides):
    base = dict(parallelism="ddp", num_gpus=4, topology="ring", iterations=6)
    base.update(overrides)
    return SimulationConfig(**base)


class TestFoldedRows:
    @pytest.fixture(scope="class")
    def folded(self, trace):
        calls = []
        real = simulator.shift_records

        def spy(records, offsets):
            calls.append((records, list(offsets)))
            return real(records, offsets)

        patch = pytest.MonkeyPatch()
        patch.setattr(simulator, "shift_records", spy)
        try:
            config = _folded_config()
            result = TrioSim(trace, config).run()
        finally:
            patch.undo()
        assert result.profile["fold_status"] == "folded"
        return config, result, calls

    def test_one_shift_call_per_run(self, folded):
        config, _result, calls = folded
        assert len(calls) == 1
        _span, offsets = calls[0]
        assert len(offsets) == config.iterations - config.fold_warmup

    def test_span_is_last_warmup_iteration(self, folded):
        config, result, calls = folded
        span, _offsets = calls[0]
        per_iteration = len(result.timeline) // config.iterations
        assert len(span) == per_iteration
        lo = (config.fold_warmup - 1) * per_iteration
        assert span == result.timeline[lo:lo + per_iteration]

    def test_folded_rows_are_slice_plus_offset_bitwise(self, folded):
        config, result, calls = folded
        span, offsets = calls[0]
        width = len(span)
        base = config.fold_warmup * width
        timeline = result.timeline
        assert len(timeline) == base + len(offsets) * width
        slice_starts = span.column("start")
        slice_ends = span.column("end")
        # The row-by-row shift in Python floats: the reference arithmetic.
        want_start = [s + off for off in offsets for s in slice_starts]
        want_end = [e + off for off in offsets for e in slice_ends]
        assert np.array_equal(_bits(timeline.start[base:]), _bits(want_start))
        assert np.array_equal(_bits(timeline.end[base:]), _bits(want_end))
        for field in ("name", "kind", "resource", "phase", "layer"):
            assert (timeline.column(field, slice(base, None))
                    == span.column(field) * len(offsets))

    def test_offsets_are_whole_periods(self, folded):
        config, result, calls = folded
        _span, offsets = calls[0]
        period = result.iteration_times[config.fold_warmup - 1]
        for k, offset in enumerate(offsets):
            assert offset == pytest.approx((k + 1) * period, rel=1e-12)


@pytest.mark.parametrize("fold", [True, False])
def test_per_layer_and_phase_are_sequential_row_sums(trace, fold):
    result = TrioSim(trace, _folded_config(iterations=4, fold=fold)).run()
    per_layer, per_phase = {}, {}
    for record in result.timeline:
        if record.kind != "compute":
            continue
        if record.layer:
            per_layer[record.layer] = (per_layer.get(record.layer, 0.0)
                                       + record.duration)
        if record.phase:
            per_phase[record.phase] = (per_phase.get(record.phase, 0.0)
                                       + record.duration)
    for got, want in ((result.per_layer, per_layer),
                      (result.per_phase, per_phase)):
        assert list(got) == list(want)                      # key order
        assert [v.hex() for v in got.values()] == \
            [v.hex() for v in want.values()]                # bitwise


def test_folded_run_builds_no_records(trace, monkeypatch):
    built = []
    init = TimelineRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TimelineRecord, "__init__", counting_init)
    result = TrioSim(trace, _folded_config(), record_timeline=True).run()
    assert result.profile["fold_status"] == "folded"
    assert len(result.timeline) > 0
    assert built == []
    result.timeline[-1]      # reading a row builds exactly that record
    assert built == [1]
