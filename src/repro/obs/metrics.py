"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability layer (the
:class:`~repro.sim.trace.Tracer` is the timeline half).  Two rules make
it safe to leave enabled everywhere:

**Determinism.**  Metrics may only record *simulated* quantities —
event counts, modeled bytes, simulated microseconds.  No wall clock, no
randomness, no process ids.  Two runs of the same configuration must
produce byte-identical :meth:`MetricsRegistry.to_json` dumps, and a
sweep fanned out over worker processes must merge to the same dump as
a serial run (``repro.perf`` merges worker registries in submission
order).  Histograms use *fixed* bucket edges for the same reason.

**Zero perturbation.**  Recording must never advance simulated time or
change scheduling.  Instrumented components hold an optional registry
and skip recording when it is ``None`` — the same ``None``-safe pattern
the tracer uses.

The active registry is installed with :func:`use_metrics`; components
created inside the block (e.g. a :class:`~repro.runtime.context.
MultiGPUContext`) pick it up at construction time.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "use_metrics",
]

#: default histogram bucket upper edges, in simulated microseconds
DEFAULT_US_EDGES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


class Counter:
    """Monotonically increasing value (int or simulated-time float)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount

    def _dump(self) -> dict[str, Any]:
        return {"value": self.value}

    def _merge(self, payload: dict[str, Any]) -> None:
        self.value += payload["value"]


class Gauge:
    """Last-written value (e.g. a configured size or level)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def _dump(self) -> dict[str, Any]:
        return {"value": self.value}

    def _merge(self, payload: dict[str, Any]) -> None:
        self.value = payload["value"]


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` observations ``<= edges[i]``,
    plus one overflow bucket; tracks sum and count for means."""

    __slots__ = ("edges", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, edges: tuple[float, ...] = DEFAULT_US_EDGES) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges}")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _dump(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def _merge(self, payload: dict[str, Any]) -> None:
        if list(payload["edges"]) != list(self.edges):
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{payload['edges']} vs {list(self.edges)}"
            )
        for i, n in enumerate(payload["counts"]):
            self.counts[i] += n
        self.sum += payload["sum"]
        self.count += payload["count"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _canonical_labels(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled metrics.

    A metric is identified by ``(kind, name, labels)``; labels are
    stringified and sorted, so ``counter("x", a=1, b=2)`` and
    ``counter("x", b=2, a=1)`` are the same counter.  Dumps are sorted
    on every axis, so creation order never leaks into the output.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, tuple[tuple[str, str], ...]], Any] = {}

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, edges: tuple[float, ...] = DEFAULT_US_EDGES,
                  **labels: Any) -> Histogram:
        key = ("histogram", name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(edges)
        return metric

    def _get(self, kind: str, name: str, labels: dict[str, Any]) -> Any:
        key = (kind, name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = _KINDS[kind]()
        return metric

    # -- queries -------------------------------------------------------------

    def find(self, name: str, kind: str | None = None) -> list[tuple[dict[str, str], Any]]:
        """All ``(labels, metric)`` pairs registered under ``name``,
        sorted by labels (deterministic iteration for table builders)."""
        out = [
            (dict(key[2]), metric)
            for key, metric in self._metrics.items()
            if key[1] == name and (kind is None or key[0] == kind)
        ]
        out.sort(key=lambda pair: sorted(pair[0].items()))
        return out

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge, or 0 if never touched."""
        for kind in ("counter", "gauge"):
            metric = self._metrics.get((kind, name, _canonical_labels(labels)))
            if metric is not None:
                return metric.value
        return 0

    def __len__(self) -> int:
        return len(self._metrics)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, list[dict[str, Any]]]:
        """Canonical nested form: one sorted list per metric kind."""
        out: dict[str, list[dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        section = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for key in sorted(self._metrics):
            kind, name, labels = key
            entry = {"name": name, "labels": dict(labels)}
            entry.update(self._metrics[key]._dump())
            out[section[kind]].append(entry)
        return out

    def to_json(self) -> str:
        """Byte-stable JSON rendering (the on-disk dump format)."""
        from repro.obs.stablejson import dumps_stable

        return dumps_stable(self.to_dict())

    def merge_dict(self, payload: dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` dump into this registry (counters and
        histograms add; gauges take the incoming value).  Used to merge
        per-worker registries in deterministic submission order."""
        for kind, section in (("counter", "counters"), ("gauge", "gauges"),
                              ("histogram", "histograms")):
            for entry in payload.get(section, []):
                if kind == "histogram":
                    metric = self.histogram(entry["name"], tuple(entry["edges"]),
                                            **entry["labels"])
                else:
                    metric = self._get(kind, entry["name"], entry["labels"])
                metric._merge(entry)


#: module-level active registry (None = observability disabled)
_active: MetricsRegistry | None = None


def active_metrics() -> MetricsRegistry | None:
    """The registry instrumented components should record into, if any."""
    return _active


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the active registry for the enclosed block."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
