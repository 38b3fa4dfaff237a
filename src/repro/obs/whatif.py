"""Causal what-if analysis: replay the span DAG with scaled costs.

:mod:`repro.obs.critical` answers *why was the run this long*; this
module answers *what would make it shorter*.  It reads the span DAG
the critical-path extractor uses (:mod:`repro.obs.dag`: lane order plus
``flow_s``/``flow_f`` signal links), infers four more edge kinds, and
replays the result with one resource's intrinsic cost virtually scaled,
predicting the new makespan: "speeding up the wires 2x saves 31%;
speeding up compute saves 4%".  That ranking is the principled
bottleneck ordering the autotuner needs.

The replay model (six dependency rules after the scaling rule):

* **Intrinsic durations scale.**  A span's duration is treated as work
  on its resource: compute spans scale by ``Scenario.compute``, wire
  spans by ``Scenario.comm`` (or a per-link override matched against
  the ``wire.pe{s}->pe{d}`` lane name), host-thread and ``api`` spans
  by ``Scenario.host``.  ``sync`` spans do *not* scale — their length
  is waiting, which the replay re-derives.
* **Lane slack is preserved.**  A span starts at its lane
  predecessor's new end plus the original gap between them.  Gaps
  encode scheduling structure the DAG does not model (issue order,
  period offsets), so keeping them absolute is the conservative
  choice: predictions never assume the runtime would also reschedule.
* **Device work moves with its launch.**  A GPU-lane work span whose
  start coincides with the end of a same-PE host ``api`` span (the
  ``launch:``/``memcpyAsync:`` call that enqueued it) is anchored to
  that span: it starts at the anchor's *new* end (still FIFO behind its
  lane predecessor).  This is what propagates faster host control onto
  the device timeline in CPU-controlled variants.
* **Transfers move with their issuer.**  A wire span's start is its
  *issue* time, which happens inside some span on the source PE (the
  kernel or API call that called ``putmem_signal``).  The replay
  anchors each wire span to the containing span on its source PE's
  lanes, at the original offset scaled by that span's factor — so
  faster compute issues its puts earlier and the transfers shift left
  with it.  FIFO order on the wire lane is still enforced (a transfer
  never starts before its lane predecessor's new end).
* **Waits end when their producer arrives.**  A span carrying
  ``flow_f`` ends at ``max(own start, producer's new end) + tail``,
  where ``tail`` is the original post-arrival processing time.  A wait
  whose producer speeds up shrinks; one whose producer slows down
  stretches.
* **Barriers release when the last party arrives.**  Sync spans named
  like barriers (``host_barrier``, ``nvshmem_barrier_all``) that share
  one original end across several lanes are one rendezvous round: every
  member's span runs from its own arrival to a common release at
  ``max(arrivals) + cost``.  The replay re-derives the release from the
  members' *new* starts and scales the rendezvous cost with the span's
  resource (host-side barriers are host-control overhead) — so a
  CPU-controlled variant's per-iteration barrier responds both to the
  stragglers arriving earlier and to faster host control.
* **Joins end when their last dependent finishes.**  A ``sync`` span
  with *no* flow link is a join — a host thread waiting for its
  device's streams (``eventSync``, end-of-run ``wait``).  Its
  producers are inferred: every same-PE span (GPU streams, outgoing
  wires) whose *original* end fell inside the wait's window.  The
  replayed wait ends when the latest of those ends in the replay —
  this is what lets faster compute shorten a CPU-controlled variant's
  launch-wait loop.

Solving: :func:`whatif_report` builds the DAG once per report — the
shared lane/flow core from :mod:`repro.obs.dag` plus the inferred
issue anchors, host anchors, barrier rounds and joins — and precomputes
every span's constant terms (duration, gaps, wait tails, barrier
costs).  Each span's start and end are separate nodes, ordered by
Kahn's algorithm with ties broken by completion rank.  A scenario
resolves its scale once per distinct ``(lane, category)`` pair and
evaluates every node once in that topological order, which yields the
exact fixed point by construction.  Only the 1e-12 tolerances of the
inference can close a cycle; then the replay falls back to bounded
Gauss–Seidel sweeps (each span's start then end, in completion order,
at most ``max_passes`` sweeps, stopping once no value moves by more
than 1e-9).  With every scale at 1.0 the original schedule *is* the
fixed point — each rule reproduces the original start/end exactly — so
deltas are pure effects of the scenario, never artifacts of the model
(pinned in ``tests/obs/test_whatif.py``).

Assumptions (documented in docs/observability.md): dependencies are
fixed — scaling never changes *which* span satisfies a wait, overtakes
FIFO order on a wire, or alters contention; and un-modeled slack stays
constant rather than scaling with its neighbors.  Predictions are
therefore first-order estimates, most trustworthy for modest scale
factors.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from typing import Any, Iterable

from repro.obs.dag import SpanDag, build_dag
from repro.sim.trace import Span, pe_of_lane, wire_route

__all__ = [
    "DEFAULT_SCENARIOS",
    "Scenario",
    "check_scale",
    "replay_makespan",
    "whatif_report",
    "whatif_table",
]

WHATIF_FORMAT = "repro-whatif-v1"


def check_scale(resource: str, value: float) -> None:
    """Reject a scale factor that is not finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"scale factor for {resource} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One virtual-hardware hypothesis.

    Scales multiply *durations*: 0.5 means the resource got 2x faster.
    ``links`` maps ``fnmatch`` patterns over wire lane names (e.g.
    ``"wire.pe0->*"``) to scales overriding ``comm`` per route.  Every
    factor must be finite and positive.
    """

    name: str
    compute: float = 1.0
    comm: float = 1.0
    host: float = 1.0
    links: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for resource in ("compute", "comm", "host"):
            check_scale(resource, getattr(self, resource))
        for pattern, value in self.links.items():
            check_scale(pattern, value)

    def scale_for(self, span: Span) -> float:
        if span.lane.startswith("wire."):
            scale = self.comm
            for pattern, value in self.links.items():
                if fnmatch(span.lane, pattern):
                    scale = value
            return scale
        if span.lane.startswith("host"):
            return self.host
        if span.category == "compute":
            return self.compute
        if span.category == "comm":
            return self.comm
        if span.category == "api":
            return self.host
        return 1.0  # sync: waiting is derived, not intrinsic


#: the standard bottleneck probe: each resource 2x faster, one at a time
DEFAULT_SCENARIOS = (
    Scenario("compute x2", compute=0.5),
    Scenario("comm x2", comm=0.5),
    Scenario("host x2", host=0.5),
)

# Node rules.  Span at rank ``r`` owns node ``2r`` (its start) and node
# ``2r + 1`` (its end); ``a``/``b`` are node indices (-1: none).  Each
# rule's constant (offset, gap, tail, cost, duration, own start) is
# precomputed per node and scaled per scenario where marked.
_WIRE = 0      # start: max(issuer start + scaled offset | own start, b)
_LAUNCHED = 1  # start: max(enqueue call's end a, b)
_GAP = 2       # start: lane predecessor's end a + original gap
_FIXED = 3     # start: own original start
_FLOW = 4      # end: max(own start, producer's end a) + wait tail
_BARRIER = 5   # end: max(members' starts) + scaled rendezvous cost
_JOIN = 6      # end: max(own start, max(dependents' ends)) + tail
_WORK = 7      # end: own start + scaled duration


@dataclass(frozen=True)
class _ReplayPlan:
    """The what-if DAG of one span list, built once and replayed per scenario."""

    #: one span per distinct (lane, category) pair: the scale lookup keys
    pairs: list[Span]
    kind: list[int]
    a: list[int]
    b: list[int]
    deps: list[tuple[int, ...] | None]
    const: list[float]
    #: which pair's scale multiplies ``const`` (``len(pairs)``: none)
    scale_pair: list[int]
    #: original start/end per node: the sweep's starting point
    initial: list[float]
    #: node evaluation order: topological, or completion order on a cycle
    nodes: list[int]
    acyclic: bool
    t0: float

    def inputs(self, node: int) -> list[int]:
        """The nodes ``node``'s rule reads."""
        found = [self.a[node], self.b[node], *(self.deps[node] or ())]
        if node & 1 and self.kind[node] != _BARRIER:
            found.append(node - 1)  # an end follows its own start
        return [src for src in found if src >= 0]


def _infer_edges(dag: SpanDag):
    """What-if edges beyond lane order and flow links.

    Returns ``(issuer, host_anchor, barrier_group, joins)``, each
    indexed by span (see the module docs for the rules).
    """
    spans, order, rank = dag.spans, dag.order, dag.rank
    flow_pred = dag.flow_pred
    n = len(spans)
    lane_pe = {lane: pe_of_lane(lane) for lane in {s.lane for s in spans}}
    lane_route = {lane: wire_route(lane) for lane in lane_pe}

    # per-PE spans (own GPU streams + outgoing wires), sorted by end:
    # the candidate pool for issue anchors and join inference
    pe_work: dict[int, list[int]] = {}
    pe_other: dict[int, list[int]] = {}  # non-wire spans, sorted by start
    for i in order:
        span = spans[i]
        pe = lane_pe[span.lane]
        if pe is None:
            continue
        pe_work.setdefault(pe, []).append(i)
        if not span.lane.startswith("wire."):
            pe_other.setdefault(pe, []).append(i)
    for members in pe_work.values():
        members.sort(key=lambda j: (spans[j].end, spans[j].start,
                                    spans[j].lane, spans[j].name, j))
    for members in pe_other.values():
        members.sort(key=lambda j: (spans[j].start, spans[j].end,
                                    spans[j].lane, spans[j].name, j))
    pe_work_ends = {pe: [spans[j].end for j in members]
                    for pe, members in pe_work.items()}
    pe_other_starts = {pe: [spans[j].start for j in members]
                       for pe, members in pe_other.items()}

    # issue anchor per wire span: the latest-starting same-source-PE
    # span containing the wire span's start (the put's call site)
    issuer: list[int | None] = [None] * n
    for i in order:
        route = lane_route[spans[i].lane]
        if route is None:
            continue
        members = pe_other.get(route[0], [])
        k = bisect_right(pe_other_starts.get(route[0], []),
                         spans[i].start) - 1
        while k >= 0:
            j = members[k]
            if spans[j].end + 1e-12 >= spans[i].start:
                issuer[i] = j
                break
            k -= 1

    # host anchor per GPU-lane work span: the same-PE host api span
    # whose original end coincides with the span's start — the enqueue
    # call it was waiting on.  Coincidence *is* the dependency signal;
    # a span that started later than its enqueue was stream-queued and
    # the lane FIFO rule already covers it.
    pe_api: dict[int, list[int]] = {}
    for i in order:
        span = spans[i]
        if span.lane.startswith("host") and span.category == "api":
            pe = lane_pe[span.lane]
            if pe is not None:
                pe_api.setdefault(pe, []).append(i)
    for members in pe_api.values():
        members.sort(key=lambda j: (spans[j].end, spans[j].start, j))
    pe_api_ends = {pe: [spans[j].end for j in members]
                   for pe, members in pe_api.items()}

    host_anchor: list[int | None] = [None] * n
    for i in order:
        span = spans[i]
        if (not span.lane.startswith("gpu") or span.lane.startswith("wire.")
                or span.category == "sync"):
            continue
        pe = lane_pe[span.lane]
        members = pe_api.get(pe, [])
        ends = pe_api_ends.get(pe, [])
        k = bisect_right(ends, span.start + 1e-12) - 1
        while k >= 0 and ends[k] >= span.start - 1e-12:
            j = members[k]
            if rank[j] < rank[i]:
                host_anchor[i] = j
                break
            k -= 1

    # barrier rounds: sync spans *named* like barriers that share one
    # original end across distinct lanes are one rendezvous.  The name
    # check matters — symmetric per-rank waits can end at the same
    # instant without being causally coupled, and grouping those would
    # freeze their (join-derived) durations.
    barrier_group: list[list[int] | None] = [None] * n
    rounds: dict[tuple[str, float], list[int]] = {}
    for i in order:
        span = spans[i]
        if (span.category == "sync" and flow_pred[i] is None
                and "barrier" in span.name):
            rounds.setdefault((span.name, span.end), []).append(i)
    for members in rounds.values():
        if len({spans[j].lane for j in members}) >= 2:
            for j in members:
                barrier_group[j] = members

    # join producers per flow-less sync span: same-PE work whose
    # original end fell inside the wait's window (ties by rank so two
    # equal-ended joins never wait on each other)
    joins: list[list[int] | None] = [None] * n
    for i in order:
        span = spans[i]
        if (span.category != "sync" or flow_pred[i] is not None
                or barrier_group[i] is not None):
            continue
        pe = lane_pe[span.lane]
        members = pe_work.get(pe) if pe is not None else None
        if not members:
            continue
        ends = pe_work_ends[pe]
        lo = bisect_right(ends, span.start - 1e-12)
        hi = bisect_right(ends, span.end + 1e-12)
        deps = [j for j in members[lo:hi]
                if j != i and spans[j].lane != span.lane
                and (spans[j].end < span.end - 1e-12 or rank[j] < rank[i])]
        if deps:
            joins[i] = deps
    return issuer, host_anchor, barrier_group, joins


def _plan(spans: list[Span]) -> _ReplayPlan:
    """Build the what-if DAG of ``spans`` and order its nodes."""
    dag = build_dag(spans)
    order, rank, lane_pred, flow_pred = (dag.order, dag.rank, dag.lane_pred,
                                         dag.flow_pred)
    issuer, host_anchor, barrier_group, joins = _infer_edges(dag)
    n = len(spans)

    # node rules with their constant terms
    pair_ids: dict[tuple[str, str], int] = {}
    pairs: list[Span] = []
    pair = [0] * n
    for i, span in enumerate(spans):
        key = (span.lane, span.category)
        if key not in pair_ids:
            pair_ids[key] = len(pairs)
            pairs.append(span)
        pair[i] = pair_ids[key]
    unscaled = len(pairs)
    kind = [0] * (2 * n)
    a = [-1] * (2 * n)
    b = [-1] * (2 * n)
    deps_of: list[tuple[int, ...] | None] = [None] * (2 * n)
    const = [0.0] * (2 * n)
    scale_pair = [unscaled] * (2 * n)
    initial = [0.0] * (2 * n)
    for r, i in enumerate(order):
        span = spans[i]
        s_node, e_node = 2 * r, 2 * r + 1
        initial[s_node] = span.start
        initial[e_node] = span.end
        prev = lane_pred[i]
        prev_end = -1 if prev is None else 2 * rank[prev] + 1
        if span.lane.startswith("wire."):
            kind[s_node] = _WIRE
            b[s_node] = prev_end  # FIFO: never overtake the prior transfer
            j = issuer[i]
            if j is None:
                const[s_node] = span.start
            else:
                a[s_node] = 2 * rank[j]
                const[s_node] = span.start - spans[j].start
                scale_pair[s_node] = pair[j]
        elif host_anchor[i] is not None:
            # enqueued work starts when its enqueue call retires, still
            # FIFO behind whatever the stream ran before it
            kind[s_node] = _LAUNCHED
            a[s_node] = 2 * rank[host_anchor[i]] + 1
            b[s_node] = prev_end
        elif prev is not None:
            # preserve the original gap to the lane predecessor
            kind[s_node] = _GAP
            a[s_node] = prev_end
            const[s_node] = span.start - spans[prev].end
        else:
            # first span on its lane keeps its absolute offset
            kind[s_node] = _FIXED
            const[s_node] = span.start

        j = flow_pred[i]
        if j is not None:
            kind[e_node] = _FLOW
            a[e_node] = 2 * rank[j] + 1
            const[e_node] = max(0.0, span.end - max(span.start, spans[j].end))
        elif barrier_group[i] is not None:
            members = barrier_group[i]
            kind[e_node] = _BARRIER
            deps_of[e_node] = tuple(2 * rank[m] for m in members)
            const[e_node] = max(0.0, span.end - max(spans[m].start
                                                    for m in members))
            scale_pair[e_node] = pair[i]
        elif joins[i] is not None:
            kind[e_node] = _JOIN
            deps_of[e_node] = tuple(2 * rank[m] + 1 for m in joins[i])
            const[e_node] = max(0.0, span.end - max(spans[m].end
                                                    for m in joins[i]))
        else:
            kind[e_node] = _WORK
            const[e_node] = span.end - span.start
            scale_pair[e_node] = pair[i]

    plan = _ReplayPlan(
        pairs=pairs, kind=kind, a=a, b=b, deps=deps_of,
        const=const, scale_pair=scale_pair, initial=initial,
        nodes=list(range(2 * n)), acyclic=False,
        t0=min((s.start for s in spans), default=0.0))

    # Kahn's algorithm over the nodes; the heap pops the lowest node
    # index, so ties fall back to completion rank, start before end
    succ: list[list[int]] = [[] for _ in range(2 * n)]
    indeg = [0] * (2 * n)
    for node in range(2 * n):
        for src in plan.inputs(node):
            succ[src].append(node)
            indeg[node] += 1
    ready = [node for node in range(2 * n) if not indeg[node]]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        topo.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                heapq.heappush(ready, nxt)
    if len(topo) < 2 * n:
        return plan  # a tolerance-induced cycle: sweep in completion order
    return replace(plan, nodes=topo, acyclic=True)


def _sweep(plan: _ReplayPlan, val: list[float], term: list[float],
           passes: int) -> int:
    """Evaluate ``plan.nodes`` into ``val`` up to ``passes`` times.

    Stops after the first pass that moves no value by more than 1e-9;
    returns the number of passes run.
    """
    kind, a, b, deps = plan.kind, plan.a, plan.b, plan.deps
    for done in range(1, passes + 1):
        changed = False
        for node in plan.nodes:
            k = kind[node]
            if k == _WORK:
                v = val[node - 1] + term[node]
            elif k == _GAP:
                v = val[a[node]] + term[node]
            elif k == _FIXED:
                v = term[node]
            elif k == _WIRE:
                src = a[node]
                v = term[node] if src < 0 else val[src] + term[node]
                if b[node] >= 0:
                    v = max(v, val[b[node]])
            elif k == _LAUNCHED:
                v = val[a[node]]
                if b[node] >= 0:
                    v = max(v, val[b[node]])
            elif k == _FLOW:
                v = max(val[node - 1], val[a[node]]) + term[node]
            elif k == _BARRIER:
                v = max([val[m] for m in deps[node]]) + term[node]
            else:  # _JOIN
                v = (max(val[node - 1], max([val[m] for m in deps[node]]))
                     + term[node])
            if abs(v - val[node]) > 1e-9:
                changed = True
            val[node] = v
        if not changed:
            return done
    return passes


def _replay(plan: _ReplayPlan, scenario: Scenario,
            max_passes: int) -> tuple[float, int]:
    """``(makespan, passes)`` of ``plan`` under ``scenario``.

    An acyclic plan takes exactly one pass in topological order; a
    cyclic one sweeps in completion order up to ``max_passes`` times.
    """
    table = [scenario.scale_for(span) for span in plan.pairs]
    table.append(1.0)
    term = [c * table[p] for c, p in zip(plan.const, plan.scale_pair)]
    val = list(plan.initial)
    passes = _sweep(plan, val, term, 1 if plan.acyclic else max_passes)
    return max(val[1::2], default=plan.t0) - plan.t0, passes


def replay_makespan(spans: list[Span], scenario: Scenario,
                    max_passes: int = 25) -> float:
    """Predicted makespan (us) of ``spans`` under ``scenario``."""
    return _replay(_plan(list(spans)), scenario, max_passes)[0]


def whatif_report(spans: Iterable[Span],
                  scenarios: Iterable[Scenario] = DEFAULT_SCENARIOS,
                  *, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Byte-stable what-if document (``repro-whatif-v1``).

    The DAG is built once and replayed per scenario.  Scenario entries
    are sorted by predicted savings, largest first (ties by name), so
    ``scenarios[0]`` *is* the bottleneck verdict.
    """
    plan = _plan(list(spans))
    baseline = _replay(plan, Scenario("baseline"), 25)[0]
    entries = []
    for scenario in scenarios:
        predicted = _replay(plan, scenario, 25)[0]
        saved = baseline - predicted
        entries.append({
            "name": scenario.name,
            "compute": scenario.compute,
            "comm": scenario.comm,
            "host": scenario.host,
            "links": dict(scenario.links),
            "makespan_us": predicted,
            "saved_us": saved,
            "saved_frac": (saved / baseline) if baseline else 0.0,
        })
    entries.sort(key=lambda e: (-e["saved_us"], e["name"]))
    payload: dict[str, Any] = {
        "format": WHATIF_FORMAT,
        "baseline_makespan_us": baseline,
        "scenarios": entries,
    }
    if meta is not None:
        payload["run"] = meta
    return payload


def whatif_table(payload: dict[str, Any]) -> str:
    """Ranked savings listing for the CLI."""
    lines = [f"baseline makespan: {payload['baseline_makespan_us']:.3f} us"]
    for entry in payload["scenarios"]:
        lines.append(
            f"  {entry['name']:>16}: {entry['makespan_us']:10.3f} us  "
            f"(saves {entry['saved_us']:.3f} us, "
            f"{100.0 * entry['saved_frac']:.1f}%)"
        )
    return "\n".join(lines)
