"""In-memory spans recorded around calls into each layer, and their arithmetic.

A span is ``(span_id, parent_id, trace_id, name, start, end)`` with times from
``time.perf_counter`` (a system-wide monotonic clock on Linux, so spans from
worker processes line up with the parent's).  The layer of a span is the
prefix of its name before the first dot (``io.decode`` is in ``io``).  A
span's self time is its duration minus the part of that interval its child
spans cover; children that ran in parallel are merged before subtracting.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, Optional[str], str, str, float, float]

_clock = time.perf_counter


class Tracer:
    """Records spans; ``begin``/``end`` nest through an explicit stack.

    ``parent`` roots the first span of a tracer under a span recorded
    elsewhere (a worker process's spans under the parent's dispatch span).
    """

    enabled = True

    def __init__(self, prefix: str = "s", parent: Optional[str] = None, trace_id: str = ""):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._prefix = prefix
        self._stack: List[Tuple[str, str]] = [(parent, trace_id)] if parent else []
        self._trace_id = trace_id

    def begin(self, name: str, trace_id: Optional[str] = None):
        parent, inherited = self._stack[-1] if self._stack else (None, self._trace_id)
        span_id = f"{self._prefix}{next(self._ids)}"
        tid = trace_id if trace_id is not None else inherited
        self._stack.append((span_id, tid))
        return (span_id, parent, tid, name, _clock())

    def end(self, token, name: Optional[str] = None) -> None:
        """Close the span ``token`` opened, optionally renaming it."""
        now = _clock()
        span_id, parent, tid, begun_as, start = token
        popped = self._stack.pop()
        if popped[0] != span_id:
            raise RuntimeError(f"span {begun_as!r} closed out of order")
        self.spans.append((span_id, parent, tid, name or begun_as, start, now))

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add to a named count (ops decoded, bytes saved, ...)."""
        self.counts[name] += amount

    def adopt(self, spans: Iterable[Span], counts: Dict[str, float]) -> None:
        """Merge spans and counts recorded by another tracer (a worker's)."""
        self.spans.extend(spans)
        for name, amount in counts.items():
            self.counts[name] += amount


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced side of the overhead ratio."""

    enabled = False

    def begin(self, name, trace_id=None):
        return None

    def end(self, token, name=None) -> None:
        pass

    def add(self, name, amount=1.0) -> None:
        pass

    def adopt(self, spans, counts) -> None:
        pass


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    kids: Dict[Optional[str], List[Span]] = defaultdict(list)
    for span in spans:
        kids[span[1]].append(span)
    return kids


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time of every span: duration minus the union of its children,
    each child clipped to the parent's interval."""
    kids = children_of(spans)
    out = {}
    for span_id, _parent, _tid, _name, start, end in spans:
        covered = union_length(
            (max(start, c[4]), min(end, c[5]))
            for c in kids.get(span_id, ())
            if c[5] > start and c[4] < end
        )
        out[span_id] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per layer."""
    selfs = self_times(spans)
    layers: Dict[str, float] = defaultdict(float)
    for span in spans:
        layers[layer_of(span[3])] += selfs[span[0]]
    return dict(layers)


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """Durations of every span called ``name``."""
    return [end - start for _sid, _p, _t, n, start, end in spans if n == name]


def total_durations(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed duration of the spans of each name."""
    totals: Dict[str, float] = defaultdict(float)
    for _sid, _p, _t, name, start, end in spans:
        totals[name] += end - start
    return dict(totals)


def coverage(spans: Sequence[Span], root_id: str) -> float:
    """Share of the root span's interval covered by its descendants."""
    kids = children_of(spans)
    root = next(s for s in spans if s[0] == root_id)
    start, end = root[4], root[5]
    below = []
    frontier = list(kids.get(root_id, ()))
    while frontier:
        span = frontier.pop()
        below.append((max(start, span[4]), min(end, span[5])))
        frontier.extend(kids.get(span[0], ()))
    wall = end - start
    return union_length(iv for iv in below if iv[1] > iv[0]) / wall if wall > 0 else 0.0


def write_spans(path, spans: Sequence[Span]) -> None:
    """Write spans as JSON Lines, one object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, tid, name, start, end in spans:
            fh.write(
                json.dumps(
                    {"span": span_id, "parent": parent, "trace": tid,
                     "name": name, "start": start, "end": end}
                )
                + "\n"
            )
