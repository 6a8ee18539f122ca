"""Order statistics and span arithmetic used by the benchmark.

Quartiles follow `statistics.quantiles(values, n=4)` (its default,
exclusive method), which is also how runs of the benchmark are compared.
"""
from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# A span as recorded by `tracing.Tracer`: (name, start, end, parent, op).
# `parent` is the index of the enclosing span in the same list, or -1.
Span = Tuple[str, float, float, int, object]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3); with a single value all three equal it."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        kids = children.get(idx)
        out.append(end - start - (_covered(start, end, kids) if kids else 0.0))
    return out


def aggregate(spans: Sequence[Span], lo: int = 0,
              hi: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Per span name in spans[lo:hi]: calls, summed self time and duration.

    Parent indices refer to the whole list.  A recursive function is
    counted once per invocation; its summed duration counts nested
    invocations again, its self time does not.
    """
    hi = len(spans) if hi is None else hi
    own_s = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans[lo:hi], own_s[lo:hi]):
        name, start, end = span[0], span[1], span[2]
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["s"] += end - start
    return out
