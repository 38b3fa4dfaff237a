"""Critical-path extraction over the traced span DAG.

The tracer records *what ran when*; this module answers *why the run
took as long as it did*.  Dependencies come from the shared span DAG
(:mod:`repro.obs.dag`), which reconstructs them from two sources:

- **lane order**: on one lane (a host thread, a TB group, a wire),
  a span depends on the latest span that finished at or before it
  started;
- **flow links**: a ``putmem_signal`` span whose metadata carries a
  ``flow_s`` id feeds the ``signal_wait_until`` span on the destination
  PE carrying the matching ``flow_f`` id (recorded by
  :mod:`repro.nvshmem.device` when tracing is enabled).

The longest dependency chain is computed by dynamic programming over
spans sorted by completion time.  A flow dependency only contributes
the *tail* of the waiting span — the part after the producer finished —
so blocked time that overlaps the producer is not double counted.
Attribution sums those contributions per category, reproducing the
compute / comm / sync decomposition of the paper's overhead argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.dag import build_dag
from repro.sim.trace import Span

__all__ = ["CriticalPathReport", "PathStep", "critical_path"]


@dataclass(frozen=True)
class PathStep:
    """One span on the critical path and its contributed time."""

    span: Span
    contributed_us: float


@dataclass
class CriticalPathReport:
    """The longest dependency chain and its attribution."""

    steps: list[PathStep]
    total_us: float
    by_category: dict[str, float]
    iterations: int = 1

    @property
    def per_iteration_us(self) -> float:
        return self.total_us / max(1, self.iterations)

    def fraction(self, category: str) -> float:
        return self.by_category.get(category, 0.0) / self.total_us if self.total_us else 0.0


def critical_path(spans: list[Span], iterations: int = 1) -> CriticalPathReport:
    """Longest dependency chain through ``spans`` (see module docs)."""
    if not spans:
        return CriticalPathReport([], 0.0, {}, iterations)
    dag = build_dag(spans)
    order, rank = dag.order, dag.rank

    n = len(spans)
    best = [0.0] * n
    pred: list[int | None] = [None] * n
    contrib = [0.0] * n

    for i in order:
        span = spans[i]
        candidates: list[tuple[float, float, int]] = []  # (chain, contributed, pred)
        prev = dag.lane_pred[i]
        if prev is not None:
            candidates.append((best[prev] + span.duration, span.duration, prev))
        # flow predecessor (only the tail after the producer completes)
        j = dag.flow_pred[i]
        if j is not None:
            tail = span.end - max(span.start, spans[j].end)
            if tail >= 0:
                candidates.append((best[j] + tail, tail, j))
        if candidates:
            chain, used, parent = max(candidates, key=lambda c: (c[0], -rank[c[2]]))
        else:
            chain, used, parent = span.duration, span.duration, None
        best[i] = chain
        pred[i] = parent
        contrib[i] = used

    # endpoint: maximal chain; ties broken by the deterministic order
    end = max(order, key=lambda i: (best[i], rank[i]))
    steps: list[PathStep] = []
    node: int | None = end
    while node is not None:
        steps.append(PathStep(spans[node], contrib[node]))
        node = pred[node]
    steps.reverse()

    by_category: dict[str, float] = {}
    for step in steps:
        by_category[step.span.category] = (
            by_category.get(step.span.category, 0.0) + step.contributed_us
        )
    return CriticalPathReport(steps, best[end], by_category, iterations)
