"""Order statistics and span arithmetic shared by the benchmark.

Pure functions over plain numbers and tuples, with no dependency on the
simulator, so the tests of the benchmark can check them in isolation.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, besides its median.
TAIL_LADDER = (75.0, 90.0, 99.0, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: ``(span id, parent id or None, name, start, end)``.
Span = Tuple[int, Optional[int], str, float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it among *count* samples, or ``None``."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


def percentile_label(q: float) -> str:
    return f"p{q:g}"


def timing_summary(name: str, values: Sequence[float]) -> Dict[str, float]:
    """``<name>_p50``, the tail percentile the sample count allows, and
    ``<name>_n`` (the sample count)."""
    out: Dict[str, float] = {f"{name}_n": len(values)}
    if not values:
        return out
    out[f"{name}_p50"] = median(values)
    q = tail_percentile(len(values))
    if q is not None:
        out[f"{name}_{percentile_label(q)}"] = percentile(values, q)
    return out


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end in spans
    }


def bad_metric_names(names: Iterable[str]) -> List[str]:
    return [n for n in names if not METRIC_NAME.fullmatch(n)]
