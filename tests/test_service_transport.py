"""Tests for the sweep-service wire transport (repro.service.transport).

The transport's contract: ``unpack(pack(obj))`` round-trips arbitrary
picklable objects with numpy payloads shipped out-of-band,
``decolumnize_trace(columnize_trace(d))`` reproduces a serialized trace
dict exactly (so the worker-side schema validation still runs against
native Python types), and malformed blobs fail loudly with
:class:`TransportError` instead of mis-parsing.
"""

import numpy as np
import pytest

from repro.gpus.specs import get_gpu
from repro.service import transport
from repro.trace.trace import Trace, validate_trace_dict
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def trace_dict():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16).to_dict()


# ----------------------------------------------------------------------
# Framed protocol-5 pack/unpack
# ----------------------------------------------------------------------


class TestPackUnpack:
    def test_round_trips_plain_objects(self):
        obj = {"a": [1, 2.5, "x"], "b": (None, True), "c": {"nested": []}}
        assert transport.unpack(transport.pack(obj)) == obj

    def test_round_trips_numpy_out_of_band(self):
        arr = np.arange(1000, dtype=np.float64)
        blob = transport.pack({"col": arr, "tag": "payload"})
        # The array's bytes travel as a raw frame, not re-encoded inside
        # the pickle stream: the blob is barely larger than the data.
        assert len(blob) < arr.nbytes + 500
        out = transport.unpack(blob)
        assert out["tag"] == "payload"
        np.testing.assert_array_equal(out["col"], arr)

    def test_round_trips_noncontiguous_array(self):
        # Strided views cannot export a contiguous raw() buffer; pack
        # materializes them once instead of crashing.
        arr = np.arange(100, dtype=np.int64)[::2]
        assert not arr.data.contiguous or arr.base is not None
        out = transport.unpack(transport.pack(arr))
        np.testing.assert_array_equal(out, arr)

    def test_unpack_accepts_memoryview_and_bytearray(self):
        blob = transport.pack([1, 2, 3])
        assert transport.unpack(memoryview(blob)) == [1, 2, 3]
        assert transport.unpack(bytearray(blob)) == [1, 2, 3]

    def test_bad_magic_raises(self):
        blob = bytearray(transport.pack({}))
        blob[:4] = b"XXXX"
        with pytest.raises(transport.TransportError):
            transport.unpack(bytes(blob))

    def test_truncated_header_raises(self):
        with pytest.raises(transport.TransportError):
            transport.unpack(b"RT")


# ----------------------------------------------------------------------
# Columnar trace wire form
# ----------------------------------------------------------------------


class TestColumnarTrace:
    def test_columnize_is_lossless(self, trace_dict):
        cols = transport.columnize_trace(trace_dict)
        assert cols[transport.TRACE_COLUMNS_KEY] == 1
        restored = transport.decolumnize_trace(cols)
        assert restored == trace_dict

    def test_numeric_fields_become_numpy_columns(self, trace_dict):
        cols = transport.columnize_trace(trace_dict)
        for key in ("t_id", "t_nbytes", "o_duration", "o_flops",
                    "t_dims_flat", "o_in_flat", "o_out_flat"):
            assert isinstance(cols[key], np.ndarray), key

    def test_restored_dict_passes_schema_validation(self, trace_dict):
        # The decolumnized dict must contain native ints/floats — numpy
        # scalars would fail the worker's validate_trace_dict.
        restored = transport.decolumnize_trace(
            transport.columnize_trace(trace_dict))
        validate_trace_dict(restored)
        rebuilt = Trace.from_dict(restored)
        assert rebuilt.to_dict() == trace_dict

    def test_pack_traces_round_trips_keyed_table(self, trace_dict):
        blob = transport.pack_traces({"A40": trace_dict,
                                      "other": trace_dict})
        assert blob[:4] == transport.MAGIC
        table = transport.unpack_traces(blob)
        assert set(table) == {"A40", "other"}
        assert table["A40"] == trace_dict

    def test_empty_ragged_rows_round_trip(self):
        flat, off = transport._ragged([[], [1, 2], [], [3]])
        assert transport._unragged(flat, off) == [[], [1, 2], [], [3]]
