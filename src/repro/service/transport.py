"""Low-overhead process-boundary transport for the sweep service.

Two independent layers, composable:

* **Out-of-band pickling** — :func:`pack` serializes with pickle
  protocol 5 and collects every :class:`pickle.PickleBuffer` the
  serializer emits (numpy arrays, ``bytes``-like payloads) as raw frames
  *outside* the pickle stream, concatenated into one length-prefixed
  blob.  :func:`unpack` hands the receiving pickler zero-copy
  ``memoryview`` slices of that blob, so a numpy column crosses the
  process boundary as one memcpy instead of being re-encoded
  element-by-element inside the pickle stream.

* **Columnar traces** — :func:`columnize_trace` converts the serialized
  trace schema (lists of per-operator/per-tensor dicts, the JSON form)
  into a struct-of-arrays wire form: numeric columns become numpy
  arrays (which the layer above ships out-of-band), strings stay as
  plain lists.  :func:`decolumnize_trace` restores the exact original
  dict — ``decolumnize_trace(columnize_trace(d)) == d`` — so the worker
  still feeds :meth:`Trace.from_dict` and its schema validation.

The sweep runner packs the per-sweep trace table once per sweep with
:func:`pack_traces` and ships that blob to every pool worker's
initializer (the dominant transfer: every worker receives every
prepared trace).  Point payloads are small plain dicts with no numeric
buffers, so they travel as ordinary pickles and never pass through
this module.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List

import numpy as np

#: Wire magic for a framed protocol-5 blob (versioned: bump on layout
#: change so a stale peer fails loudly instead of mis-parsing).
MAGIC = b"RTP1"

_HEADER = struct.Struct("<4sI")   # magic, frame count
_LENGTH = struct.Struct("<Q")     # per-frame byte length

#: Marker key identifying a columnized trace dict on the wire.
TRACE_COLUMNS_KEY = "__trace_columns__"


class TransportError(ValueError):
    """A blob does not follow the framed protocol-5 layout."""


# ----------------------------------------------------------------------
# Framed protocol-5 pickling
# ----------------------------------------------------------------------
def pack(obj: Any) -> bytes:
    """Serialize *obj* into one framed protocol-5 blob.

    Layout: header (magic + frame count), frame lengths, then the
    frames — frame 0 is the pickle stream, frames 1..n the out-of-band
    buffers in emission order.
    """
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    frames: List[bytes] = [head]
    for buf in buffers:
        # raw() requires a contiguous exporter; the numpy columns built
        # by columnize_trace always are.  A non-contiguous buffer (rare:
        # a strided array view) is materialized once here, at pack time.
        try:
            frames.append(buf.raw().tobytes())
        except BufferError:
            frames.append(memoryview(buf).tobytes())
    parts = [_HEADER.pack(MAGIC, len(frames))]
    parts.extend(_LENGTH.pack(len(frame)) for frame in frames)
    parts.extend(frames)
    return b"".join(parts)


def unpack(blob) -> Any:
    """Deserialize a :func:`pack`'d blob (zero-copy buffer hand-off)."""
    view = memoryview(blob)
    if len(view) < _HEADER.size:
        raise TransportError("blob shorter than transport header")
    magic, count = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise TransportError(
            f"bad transport magic {magic!r} (expected {MAGIC!r})")
    offset = _HEADER.size
    lengths = []
    for _ in range(count):
        (length,) = _LENGTH.unpack_from(view, offset)
        lengths.append(length)
        offset += _LENGTH.size
    frames = []
    for length in lengths:
        frames.append(view[offset:offset + length])
        offset += length
    if not frames:
        raise TransportError("blob carries no pickle frame")
    return pickle.loads(frames[0], buffers=frames[1:])


# ----------------------------------------------------------------------
# Columnar trace wire form
# ----------------------------------------------------------------------
def _ragged(rows) -> tuple:
    """Flatten a list of int lists into (flat, offsets) numpy columns."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        offsets[i + 1] = offsets[i] + len(row)
    flat = np.fromiter(
        (v for row in rows for v in row), dtype=np.int64,
        count=int(offsets[-1]))
    return flat, offsets


def _unragged(flat: np.ndarray, offsets: np.ndarray) -> List[List[int]]:
    flat_list = flat.tolist()
    bounds = offsets.tolist()
    return [flat_list[bounds[i]:bounds[i + 1]]
            for i in range(len(bounds) - 1)]


def columnize_trace(data: Dict[str, Any]) -> Dict[str, Any]:
    """The struct-of-arrays wire form of a serialized trace dict.

    Numeric per-row fields become numpy columns (shipped out-of-band by
    :func:`pack`); strings stay as lists.  The transform is lossless:
    :func:`decolumnize_trace` reproduces the input dict exactly.
    """
    tensors = data["tensors"]
    operators = data["operators"]
    dims_flat, dims_off = _ragged([t["dims"] for t in tensors])
    in_flat, in_off = _ragged([op["inputs"] for op in operators])
    out_flat, out_off = _ragged([op["outputs"] for op in operators])
    return {
        TRACE_COLUMNS_KEY: 1,
        "format_version": data["format_version"],
        "model_name": data["model_name"],
        "gpu_name": data["gpu_name"],
        "batch_size": data["batch_size"],
        "seq_len": data["seq_len"],
        "t_id": np.array([t["id"] for t in tensors], dtype=np.int64),
        "t_dims_flat": dims_flat,
        "t_dims_off": dims_off,
        "t_dtype": [t["dtype"] for t in tensors],
        "t_category": [t["category"] for t in tensors],
        "t_nbytes": np.array([t["nbytes"] for t in tensors],
                             dtype=np.int64),
        "o_name": [op["name"] for op in operators],
        "o_kind": [op["kind"] for op in operators],
        "o_layer": [op["layer"] for op in operators],
        "o_phase": [op["phase"] for op in operators],
        "o_duration": np.array([op["duration"] for op in operators],
                               dtype=np.float64),
        "o_flops": np.array([op["flops"] for op in operators],
                            dtype=np.float64),
        "o_in_flat": in_flat,
        "o_in_off": in_off,
        "o_out_flat": out_flat,
        "o_out_off": out_off,
    }


def decolumnize_trace(cols: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the plain serialized trace dict from its columnar form.

    ``.tolist()`` materializes native Python ints/floats, so the result
    passes :func:`repro.trace.trace.validate_trace_dict` unchanged.
    """
    ids = cols["t_id"].tolist()
    dims = _unragged(cols["t_dims_flat"], cols["t_dims_off"])
    nbytes = cols["t_nbytes"].tolist()
    tensors = [
        {"id": ids[i], "dims": dims[i], "dtype": cols["t_dtype"][i],
         "category": cols["t_category"][i], "nbytes": nbytes[i]}
        for i in range(len(ids))
    ]
    durations = cols["o_duration"].tolist()
    flops = cols["o_flops"].tolist()
    inputs = _unragged(cols["o_in_flat"], cols["o_in_off"])
    outputs = _unragged(cols["o_out_flat"], cols["o_out_off"])
    operators = [
        {"name": cols["o_name"][i], "kind": cols["o_kind"][i],
         "layer": cols["o_layer"][i], "phase": cols["o_phase"][i],
         "duration": durations[i], "flops": flops[i],
         "inputs": inputs[i], "outputs": outputs[i]}
        for i in range(len(durations))
    ]
    return {
        "format_version": cols["format_version"],
        "model_name": cols["model_name"],
        "gpu_name": cols["gpu_name"],
        "batch_size": cols["batch_size"],
        "seq_len": cols["seq_len"],
        "tensors": tensors,
        "operators": operators,
    }


def pack_traces(trace_dicts: Dict[str, Dict[str, Any]]) -> bytes:
    """Pack a sweep's prepared-trace table for the pool initializer."""
    return pack({key: columnize_trace(d) for key, d in trace_dicts.items()})


def unpack_traces(blob) -> Dict[str, Dict[str, Any]]:
    """Inverse of :func:`pack_traces` — plain trace dicts, keyed alike."""
    return {key: decolumnize_trace(cols)
            for key, cols in unpack(blob).items()}
