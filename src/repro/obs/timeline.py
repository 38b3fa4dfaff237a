"""Per-PE utilization timelines — the paper's argument as a number.

The CPU-free claim is that each PE keeps its GPU busy by overlapping
device-initiated communication with interior compute and by removing
host-side control latency.  This module post-processes a run's spans
into deterministic per-PE *phase accounting* that makes the claim
checkable per PE:

``compute``
    union of ``category == "compute"`` spans on that PE's GPU lanes
    (``gpu{d}.*``).
``comm``
    union of the PE's outgoing transfers (``wire.pe{d}->*`` lanes —
    a transfer is charged to the PE that initiated it) plus
    ``category == "comm"`` spans on its GPU lanes (local packing,
    D2D copy legs).
``sync``
    union of ``category == "sync"`` spans on its GPU lanes (signal
    waits, barrier waits).
``host``
    union of *all* spans on its host lane (``host{d}``): kernel-launch
    and API calls, host-side waits — the control time the CPU-free
    design removes.

The headline **overlap fraction** is the *hidden-non-compute* fraction:

    overlap = |(comm ∪ sync ∪ host) ∩ compute| / |comm ∪ sync ∪ host|

i.e. of everything a PE did besides compute, how much was hidden under
its own compute.  CPU-controlled baselines serialize launch/wait
control between kernels, so their sync + host time is *exposed* and the
fraction is low; CPU-free variants fold waits and communication under
interior compute and score strictly higher (the acceptance criterion of
this PR, pinned in ``tests/obs/test_timeline.py``).  The narrower
comm-only fraction (``comm_overlap`` — the classic Figure 2.2b metric)
is also reported; note that baselines whose only "comm" is a D2D copy
scheduled under interior compute can score a perfect comm-only ratio
while hiding none of their control time, which is why it is not the
headline.

Everything here is a pure function of the span list — simulated
timestamps only, no wall clock — so payloads are byte-identical across
reruns, ``--jobs`` counts, and ``--batch`` on/off (batched runs demux
to the same spans by the PR 6 contract).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sim.trace import (
    Span,
    interval_union_length,
    merge_intervals,
    overlap_length,
    pe_of_lane,
    time_ruler,
)

__all__ = [
    "PEPhases",
    "pe_phases",
    "render_gantt",
    "timeline_payload",
    "timeline_table",
]

TIMELINE_FORMAT = "repro-timeline-v1"

Interval = tuple[float, float]


class PEPhases:
    """Merged phase interval sets for one PE (see module docs)."""

    __slots__ = ("pe", "compute", "comm", "sync", "host")

    def __init__(self, pe: int) -> None:
        self.pe = pe
        self.compute: list[Interval] = []
        self.comm: list[Interval] = []
        self.sync: list[Interval] = []
        self.host: list[Interval] = []

    @property
    def noncompute(self) -> list[Interval]:
        """Everything but compute — the time that *could* be hidden."""
        return merge_intervals(self.comm + self.sync + self.host)

    @property
    def busy(self) -> list[Interval]:
        return merge_intervals(self.compute + self.comm + self.sync + self.host)

    def overlap_fraction(self) -> float:
        """Headline metric: fraction of non-compute hidden under compute."""
        noncompute = self.noncompute
        total = interval_union_length(noncompute)
        if total == 0.0:
            return 0.0
        return overlap_length(noncompute, self.compute) / total

    def comm_overlap_fraction(self) -> float:
        """Narrow Figure-2.2b metric: fraction of comm hidden under compute."""
        total = interval_union_length(self.comm)
        if total == 0.0:
            return 0.0
        return overlap_length(self.comm, self.compute) / total


def pe_phases(spans: Iterable[Span]) -> dict[int, PEPhases]:
    """Bucket spans into per-PE phase interval sets.

    Lanes that do not belong to a PE (none exist today) are ignored;
    zero-duration spans contribute nothing to a union and are skipped.
    """
    phases: dict[int, PEPhases] = {}
    for span in spans:
        pe = pe_of_lane(span.lane)
        if pe is None or span.duration == 0.0:
            continue
        entry = phases.get(pe)
        if entry is None:
            entry = phases[pe] = PEPhases(pe)
        interval = (span.start, span.end)
        if span.lane.startswith("host"):
            entry.host.append(interval)
        elif span.lane.startswith("wire."):
            entry.comm.append(interval)
        elif span.category == "compute":
            entry.compute.append(interval)
        elif span.category == "comm":
            entry.comm.append(interval)
        elif span.category == "sync":
            entry.sync.append(interval)
        else:  # "api" and anything future on a GPU lane: control time
            entry.host.append(interval)
    for entry in phases.values():
        entry.compute = merge_intervals(entry.compute)
        entry.comm = merge_intervals(entry.comm)
        entry.sync = merge_intervals(entry.sync)
        entry.host = merge_intervals(entry.host)
    return phases


def timeline_payload(spans: Iterable[Span], *, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Byte-stable timeline document (``repro-timeline-v1``).

    ``meta`` is echoed verbatim under ``"run"`` so a dump is
    self-describing (variant, shape, gpus, ...).  All times are
    simulated microseconds.
    """
    spans = list(spans)
    phases = pe_phases(spans)
    timed = [s for s in spans if s.duration > 0.0] or list(spans)
    t0 = min((s.start for s in timed), default=0.0)
    t1 = max((s.end for s in timed), default=0.0)
    makespan = t1 - t0
    pes = []
    total_noncompute = 0.0
    total_hidden = 0.0
    for pe in sorted(phases):
        entry = phases[pe]
        noncompute = entry.noncompute
        noncompute_us = interval_union_length(noncompute)
        hidden_us = overlap_length(noncompute, entry.compute)
        busy_us = interval_union_length(entry.busy)
        total_noncompute += noncompute_us
        total_hidden += hidden_us
        pes.append({
            "pe": pe,
            "compute_us": interval_union_length(entry.compute),
            "comm_us": interval_union_length(entry.comm),
            "sync_us": interval_union_length(entry.sync),
            "host_us": interval_union_length(entry.host),
            "busy_us": busy_us,
            "idle_us": max(0.0, makespan - busy_us),
            "hidden_us": hidden_us,
            "exposed_us": noncompute_us - hidden_us,
            "overlap": entry.overlap_fraction(),
            "comm_overlap": entry.comm_overlap_fraction(),
        })
    payload: dict[str, Any] = {
        "format": TIMELINE_FORMAT,
        "t0_us": t0,
        "t1_us": t1,
        "makespan_us": makespan,
        "pes": pes,
        "overlap": (total_hidden / total_noncompute) if total_noncompute else 0.0,
        "mean_overlap": (
            sum(p["overlap"] for p in pes) / len(pes) if pes else 0.0
        ),
    }
    if meta is not None:
        payload["run"] = meta
    return payload


def timeline_table(payload: dict[str, Any]) -> str:
    """Fixed-width per-PE phase table for the CLI."""
    headers = ["pe", "compute us", "comm us", "sync us", "host us",
               "idle us", "overlap", "comm ovl"]
    rows = [
        [str(p["pe"]), f"{p['compute_us']:.3f}", f"{p['comm_us']:.3f}",
         f"{p['sync_us']:.3f}", f"{p['host_us']:.3f}", f"{p['idle_us']:.3f}",
         f"{100.0 * p['overlap']:.1f}%", f"{100.0 * p['comm_overlap']:.1f}%"]
        for p in payload["pes"]
    ]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    lines = [
        f"makespan: {payload['makespan_us']:.3f} us over {len(payload['pes'])} PE(s)",
        f"overlap (non-compute hidden under compute): "
        f"{100.0 * payload['overlap']:.1f}%",
        "",
        fmt(headers),
        fmt(["-" * w for w in widths]),
    ]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_gantt(spans: Iterable[Span], width: int = 80) -> str:
    """One-row-per-PE ASCII gantt with phase glyphs.

    ``#`` compute · ``%`` non-compute hidden under compute · ``~``
    exposed comm · ``|`` exposed sync · ``.`` exposed host-control ·
    space idle.  Cells are painted from merged interval sets, so two
    runs with the same spans render the same text.
    """
    phases = pe_phases(spans)
    if not phases:
        return "(empty timeline)"
    t0 = min(iv[0] for p in phases.values() for iv in p.busy)
    t1 = max(iv[1] for p in phases.values() for iv in p.busy)
    extent = max(t1 - t0, 1e-12)

    def paint(mask: list[bool], intervals: list[Interval]) -> None:
        for lo_t, hi_t in intervals:
            lo = int((lo_t - t0) / extent * (width - 1))
            hi = max(lo + 1, int((hi_t - t0) / extent * (width - 1)) + 1)
            for i in range(lo, min(hi, width)):
                mask[i] = True

    label_width = max(len(f"pe{pe}") for pe in phases)
    rows = [time_ruler(t0, t1, width, label_width)]
    for pe in sorted(phases):
        entry = phases[pe]
        compute = [False] * width
        comm = [False] * width
        sync = [False] * width
        host = [False] * width
        paint(compute, entry.compute)
        paint(comm, entry.comm)
        paint(sync, entry.sync)
        paint(host, entry.host)
        row = []
        for i in range(width):
            noncompute = comm[i] or sync[i] or host[i]
            if compute[i] and noncompute:
                row.append("%")
            elif compute[i]:
                row.append("#")
            elif comm[i]:
                row.append("~")
            elif sync[i]:
                row.append("|")
            elif host[i]:
                row.append(".")
            else:
                row.append(" ")
        rows.append(f"{f'pe{pe}':>{label_width}} |{''.join(row)}|")
    rows.append(f"{'legend':>{label_width}}  # compute   % hidden   ~ comm   "
                f"| sync   . host   (space) idle")
    return "\n".join(rows)

