"""The span DAG shared by the critical-path and what-if analyses.

Both analyses read one dependency structure out of a trace, built here
once per span list:

- **order and rank**: spans sorted by completion time, then start,
  lane, name and input index.  The order is deterministic and puts
  every lane and flow predecessor before its dependent;
- **lane order**: on one lane (a host thread, a TB group, a wire), a
  span depends on the latest span that finished at or before it
  started (1e-12 tolerance);
- **flow links**: a span whose metadata carries ``flow_f`` depends on
  the span carrying the matching ``flow_s`` id (recorded by
  :mod:`repro.nvshmem.device` when tracing is enabled), provided the
  producer ranks earlier.

:mod:`repro.obs.critical` runs its longest-chain dynamic program over
these edges; :mod:`repro.obs.whatif` adds its inferred edges (issue
anchors, host anchors, barrier rounds, joins) on top and replays the
result under scaled costs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.sim.trace import Span

__all__ = ["SpanDag", "build_dag"]


def _flow_id(span: Span, key: str):
    """The ``flow_s``/``flow_f`` id in ``span.meta``, or ``None``."""
    meta = span.meta
    return meta.get(key) if isinstance(meta, dict) else None


@dataclass(frozen=True)
class SpanDag:
    """Lane and flow dependencies of a span list (indices into ``spans``)."""

    spans: list[Span]
    #: span indices by (end, start, lane, name, index)
    order: list[int]
    #: ``rank[i]`` is span ``i``'s position in ``order``
    rank: list[int]
    #: latest same-lane span that ended at or before span ``i`` started
    lane_pred: list[int | None]
    #: the ``flow_s`` producer of span ``i``'s ``flow_f`` wait
    flow_pred: list[int | None]


def build_dag(spans: list[Span]) -> SpanDag:
    """Order, rank, lane and flow predecessors of ``spans``."""
    n = len(spans)
    order = sorted(range(n),
                   key=lambda i: (spans[i].end, spans[i].start, spans[i].lane,
                                  spans[i].name, i))
    rank = [0] * n
    for pos, i in enumerate(order):
        rank[i] = pos

    by_lane: dict[str, list[int]] = {}
    lane_ends: dict[str, list[float]] = {}
    lane_pred: list[int | None] = [None] * n
    for i in order:
        span = spans[i]
        members = by_lane.get(span.lane)
        if members is None:
            members = by_lane[span.lane] = []
            lane_ends[span.lane] = []
        ends = lane_ends[span.lane]
        # members so far are exactly the lane's earlier-ranked spans
        k = bisect_right(ends, span.start + 1e-12) - 1
        if k >= 0:
            lane_pred[i] = members[k]
        members.append(i)
        ends.append(span.end)

    producers = {}
    for i in order:
        fid = _flow_id(spans[i], "flow_s")
        if fid is not None:
            producers[fid] = i
    flow_pred: list[int | None] = [None] * n
    for i in order:
        fid = _flow_id(spans[i], "flow_f")
        j = producers.get(fid) if fid is not None else None
        if j is not None and rank[j] < rank[i]:
            flow_pred[i] = j

    return SpanDag(spans, order, rank, lane_pred, flow_pred)
