"""Timeline tracing — the simulator's answer to NVIDIA Nsight.

Processes record :class:`Span` intervals on named *lanes* (one lane per
GPU stream / thread-block group / host thread).  Spans carry a
*category* (``"compute"``, ``"comm"``, ``"sync"``, ``"api"``) so the
analysis helpers can reproduce the paper's Figure 2.2b: what fraction
of execution is communication, and how much of that communication is
overlapped with computation.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "interval_union_length",
    "merge_intervals",
    "overlap_length",
    "pe_of_lane",
    "time_ruler",
    "wire_route",
]

#: lane naming convention (see :mod:`repro.runtime.context`):
#: ``gpu{d}.{stream}`` for device streams, ``host{r}`` for host control
#: threads, ``wire.pe{src}->pe{dst}`` for in-flight transfers.
_GPU_LANE = re.compile(r"^gpu(\d+)\.")
_HOST_LANE = re.compile(r"^host(\d+)$")
_WIRE_LANE = re.compile(r"^wire\.pe(\d+)->pe(\d+)$")


def pe_of_lane(lane: str) -> int | None:
    """The PE a lane belongs to, or ``None`` for non-PE lanes.

    Wire lanes are attributed to the *source* PE — the transfer is work
    that PE initiated, which is how the paper's per-PE accounting
    charges communication.
    """
    m = _GPU_LANE.match(lane) or _HOST_LANE.match(lane)
    if m:
        return int(m.group(1))
    m = _WIRE_LANE.match(lane)
    if m:
        return int(m.group(1))
    return None


def wire_route(lane: str) -> tuple[int, int] | None:
    """``(src, dst)`` for a ``wire.pe{src}->pe{dst}`` lane, else None."""
    m = _WIRE_LANE.match(lane)
    return (int(m.group(1)), int(m.group(2))) if m else None


class Span:
    """A half-open interval ``[start, end)`` of activity on a lane.

    ``meta`` carries optional enrichment used by the observability
    layer — notably ``{"flow_s": id}`` on a span that produces a signal
    and ``{"flow_f": id}`` on the wait it satisfies (Chrome-trace flow
    events, critical-path dependencies).  It never affects timing.

    A ``__slots__`` value class rather than a dataclass: traced runs
    allocate one per simulated activity, putting construction on the
    engine's hot path.
    """

    __slots__ = ("lane", "name", "category", "start", "end", "meta")

    def __init__(self, lane: str, name: str, category: str,
                 start: float, end: float, meta: Any = None) -> None:
        self.lane = lane
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.meta = meta

    @property
    def duration(self) -> float:
        return self.end - self.start

    def _key(self) -> tuple:
        return (self.lane, self.name, self.category, self.start, self.end,
                self.meta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (f"Span(lane={self.lane!r}, name={self.name!r}, "
                f"category={self.category!r}, start={self.start!r}, "
                f"end={self.end!r}, meta={self.meta!r})")


class Tracer:
    """Collects spans; ``None``-safe pattern: components accept an
    optional tracer and skip recording when it is absent.

    Spans are stored as plain ``(lane, name, category, start, end,
    meta)`` rows; :attr:`spans` builds the :class:`Span` objects on
    read.  Category totals and the overlap ratio (no lane filter) read
    one merged interval list per category, built on first use and
    rebuilt only after more rows arrive.  A tracer returned by
    :func:`repro.stencil.batch.demux_tracer` starts as a view of one
    member of a batched run and takes its own content from the joint
    run the first time anything beyond those totals is read.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        #: Span objects for ``self._rows[:len(self._spans)]``
        self._spans: list[Span] = []
        #: category -> merged intervals, valid while ``len(self._rows)``
        #: equals ``self._merged_rows``
        self._merged: dict[str, list[tuple[float, float]]] = {}
        self._merged_rows = 0
        self._counters: list[tuple[str, float, float]] = []
        self._instants: list[tuple[float, str, str, Any]] = []
        #: ``(joint run, member index)`` until a demuxed member is split
        self._source: tuple[Any, int] | None = None

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in recording order."""
        if self._source is not None:
            self._split()
        spans, rows = self._spans, self._rows
        if len(spans) < len(rows):
            spans.extend([Span(lane, name, category, start, end, meta)
                          for lane, name, category, start, end, meta
                          in rows[len(spans):]])
        return spans

    @property
    def counter_samples(self) -> list[tuple[str, float, float]]:
        """Counter samples as ``(name, time, value)`` — exported as
        Chrome-trace counter ("C") events."""
        if self._source is not None:
            self._split()
        return self._counters

    @property
    def instant_events(self) -> list[tuple[float, str, str, Any]]:
        """Point-in-time markers as ``(time, name, category, args)`` —
        exported as Chrome-trace instant ("i") events; the fault layer
        uses these to pin injected faults on the timeline."""
        if self._source is not None:
            self._split()
        return self._instants

    def _split(self) -> None:
        """Take a demuxed member's rows, counters and instants from the
        joint run, ahead of anything recorded on this tracer since."""
        (joint, member), self._source = self._source, None
        rows, counters, instants = joint.member(member)
        self._rows[:0] = rows
        self._counters[:0] = counters
        self._instants[:0] = instants

    def _intervals(self, category: str) -> list[tuple[float, float]]:
        """Merged intervals of every span of ``category``."""
        if self._source is not None:
            if not self._rows:
                joint, member = self._source
                return joint.intervals(category)[member]
            self._split()
        rows = self._rows
        if self._merged_rows != len(rows):
            self._merged = {}
            self._merged_rows = len(rows)
        merged = self._merged.get(category)
        if merged is None:
            merged = self._merged[category] = merge_intervals(
                [(row[3], row[4]) for row in rows if row[2] == category])
        return merged

    def record(self, lane: str, name: str, category: str, start: float, end: float,
               meta: Any = None) -> None:
        """Record a completed span (most callers know both endpoints)."""
        if not (start <= end):
            raise ValueError(f"span ends before it starts: {name} [{start}, {end})")
        self._rows.append((lane, name, category, start, end, meta))

    def add_counter(self, name: str, now: float, value: float) -> None:
        """Record one sample of a time-varying counter (e.g. in-flight
        deliveries per PE)."""
        self._counters.append((name, now, value))

    def add_instant(self, name: str, now: float, category: str = "instant",
                    args: Any = None) -> None:
        """Record a zero-duration marker (e.g. an injected fault)."""
        self._instants.append((now, name, category, args))

    # -- queries -------------------------------------------------------------

    def lanes(self) -> list[str]:
        return sorted({s.lane for s in self.spans})

    def spans_in(self, category: str | None = None, lane_prefix: str | None = None) -> list[Span]:
        """Filter spans by category and/or lane-name prefix."""
        out = self.spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if lane_prefix is not None:
            out = [s for s in out if s.lane.startswith(lane_prefix)]
        return out

    def total(self, category: str, lane_prefix: str | None = None) -> float:
        """Union length of all spans of ``category`` (overlaps counted once)."""
        if lane_prefix is None:
            return _length(self._intervals(category))
        spans = self.spans_in(category, lane_prefix)
        return interval_union_length([(s.start, s.end) for s in spans])

    def busy_per_lane(self) -> dict[str, float]:
        """Union length of activity per lane."""
        per_lane: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            per_lane[s.lane].append((s.start, s.end))
        return {lane: interval_union_length(iv) for lane, iv in per_lane.items()}

    def overlap_ratio(self, comm_category: str = "comm", comp_category: str = "compute",
                      lane_prefix: str | None = None) -> float:
        """Fraction of communication time overlapped with computation.

        This is the metric of Figure 2.2b: ``overlap_len(comm ∩ comp) /
        union_len(comm)``.  Returns 0.0 when there is no communication.
        """
        if lane_prefix is None:
            comm = self._intervals(comm_category)
            comp = self._intervals(comp_category)
        else:
            comm = merge_intervals([(s.start, s.end)
                                    for s in self.spans_in(comm_category, lane_prefix)])
            comp = merge_intervals([(s.start, s.end)
                                    for s in self.spans_in(comp_category, lane_prefix)])
        comm_len = _length(comm)
        if comm_len == 0.0:
            return 0.0
        return _merged_overlap(comm, comp) / comm_len

    def to_chrome_trace(self) -> list[dict]:
        """Export spans in Chrome Tracing (``chrome://tracing`` /
        Perfetto) JSON event format — the closest thing to opening the
        simulated run in Nsight.

        Lanes map to thread ids within one process; categories become
        event categories.  Durations are in microseconds, matching the
        trace-event spec's native unit.
        """
        lane_ids = {lane: i for i, lane in enumerate(self.lanes())}
        events: list[dict] = [
            {
                "name": lane,
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": lane},
                "cat": "__metadata",
            }
            for lane, tid in lane_ids.items()
        ]
        flow_starts: list[dict] = []
        flow_finishes: list[dict] = []
        seen_flow_ids: set = set()
        # Flow ids are renumbered by first appearance in the sorted span
        # order below: the raw ids are allocated at op *issue* time,
        # whose order at equal timestamps is an engine dispatch detail —
        # canonical ids make the exported trace a pure function of the
        # spans themselves.
        canon_flow: dict = {}
        for span in sorted(self.spans, key=lambda s: (s.start, s.end, s.lane, s.name)):
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": 0,
                "tid": lane_ids[span.lane],
                "ts": span.start,
                "dur": span.duration,
            })
            meta = span.meta if isinstance(span.meta, dict) else {}
            if "flow_s" in meta:
                raw = meta["flow_s"]
                seen_flow_ids.add(raw)
                if raw not in canon_flow:
                    canon_flow[raw] = len(canon_flow) + 1
                flow_starts.append({
                    "name": "signal", "cat": "flow", "ph": "s",
                    "id": canon_flow[raw],
                    "pid": 0, "tid": lane_ids[span.lane], "ts": span.end,
                })
            if "flow_f" in meta:
                flow_finishes.append({
                    "name": "signal", "cat": "flow", "ph": "f", "bp": "e",
                    "id": meta["flow_f"], "pid": 0, "tid": lane_ids[span.lane],
                    "ts": span.end,
                })
        events.extend(flow_starts)
        # only emit finishes whose start half exists (spec requires pairing)
        for e in flow_finishes:
            if e["id"] in seen_flow_ids:
                e["id"] = canon_flow[e["id"]]
                events.append(e)
        for name, ts, value in sorted(self.counter_samples):
            events.append({
                "name": name, "cat": "counter", "ph": "C", "pid": 0,
                "ts": ts, "args": {"value": value},
            })
        # stable sort on (ts, name) only: args dicts are not orderable,
        # and insertion order (deterministic) breaks remaining ties
        for ts, name, category, args in sorted(
            self.instant_events, key=lambda e: (e[0], e[1])
        ):
            event = {
                "name": name, "cat": category, "ph": "i", "s": "g",
                "pid": 0, "ts": ts,
            }
            if args is not None:
                event["args"] = args
            events.append(event)
        return events

    def render_ascii(self, width: int = 80, lane_prefix: str | None = None) -> str:
        """Render a coarse ASCII timeline: a time-axis ruler, one row
        per lane, and an inline legend.  Zero-duration spans appear as
        a single ``*`` glyph instead of being stretched to a cell."""
        spans = self.spans if lane_prefix is None else [
            s for s in self.spans if s.lane.startswith(lane_prefix)
        ]
        if not spans:
            return "(empty timeline)"
        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
        extent = max(t1 - t0, 1e-12)
        glyph = {"compute": "#", "comm": "~", "sync": "|", "api": "."}
        rows = [time_ruler(t0, t1, width, 24)]
        for lane in sorted({s.lane for s in spans}):
            row = [" "] * width
            for s in spans:
                if s.lane != lane:
                    continue
                lo = int((s.start - t0) / extent * (width - 1))
                if s.duration == 0.0:
                    row[lo] = "*"
                    continue
                hi = max(lo + 1, int((s.end - t0) / extent * (width - 1)) + 1)
                ch = glyph.get(s.category, "?")
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            rows.append(f"{lane:>24} |{''.join(row)}|")
        rows.append(f"{'legend':>24}  # compute   ~ comm   | sync   "
                    f". api   * zero-duration")
        return "\n".join(rows)


def time_ruler(t0: float, t1: float, width: int, label_width: int) -> str:
    """The two header rows of an ASCII timeline: µs labels over a
    time-axis ruler with tick marks at the quartiles, both indented past
    a ``label_width`` row-label column."""
    ticks = [0, (width - 1) // 4, (width - 1) // 2, 3 * (width - 1) // 4, width - 1]
    ruler = ["-"] * width
    for tick in ticks:
        ruler[tick] = "+"
    labels = [" "] * width
    for tick in ticks:
        text = f"{t0 + (t1 - t0) * tick / max(1, width - 1):.1f}"
        at = min(tick, width - len(text))
        labels[at:at + len(text)] = text
    return (f"{'':>{label_width}}  {''.join(labels)}\n"
            f"{'t (us)':>{label_width}} |{''.join(ruler)}|")


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping intervals into a sorted disjoint list."""
    if not intervals:
        return []
    ordered = iter(sorted(intervals))
    lo, hi = next(ordered)
    merged = []
    for start, end in ordered:
        if start <= hi:
            if end > hi:
                hi = end
        else:
            merged.append((lo, hi))
            lo, hi = start, end
    merged.append((lo, hi))
    return merged


def _length(merged: list[tuple[float, float]]) -> float:
    """Total length of a merged (sorted, disjoint) interval list."""
    return sum(hi - lo for lo, hi in merged)


def interval_union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of ``intervals``."""
    return _length(merge_intervals(intervals))


def _merged_overlap(ma: list[tuple[float, float]],
                    mb: list[tuple[float, float]]) -> float:
    """Intersection length of two merged (sorted, disjoint) lists."""
    i = j = 0
    total = 0.0
    while i < len(ma) and j < len(mb):
        lo = max(ma[i][0], mb[j][0])
        hi = min(ma[i][1], mb[j][1])
        if hi > lo:
            total += hi - lo
        if ma[i][1] < mb[j][1]:
            i += 1
        else:
            j += 1
    return total


def overlap_length(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Length of the intersection of two interval sets."""
    return _merged_overlap(merge_intervals(a), merge_intervals(b))
