"""Compare two metric dumps and flag regressions.

Accepts both dump shapes the repo produces:

- a :meth:`~repro.obs.metrics.MetricsRegistry.to_json` dump (sections
  ``counters`` / ``gauges`` / ``histograms``), flattened to
  ``name{k=v,...}`` keys (histograms contribute ``...:sum`` and
  ``...:count``);
- any nested JSON object of numbers (e.g. a ``BENCH_*.json`` record),
  flattened to dotted paths; non-numeric leaves are ignored.

A *regression* is a relative increase beyond the threshold — the
convention matches what the tracked metrics mean (event counts, bytes,
simulated time: more is worse).  ``repro.obs diff`` exits non-zero when
any regression is found, so CI can gate on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

__all__ = ["MetricDelta", "diff_metrics", "flatten_metrics", "load_metrics"]


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric; ``rel`` is ``(new - old) / |old|``."""

    key: str
    old: float
    new: float
    rel: float

    def is_regression(self, threshold: float) -> bool:
        return self.rel > threshold


def _labeled(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def flatten_metrics(payload: dict[str, Any]) -> dict[str, float]:
    """Flatten a dump (either shape, see module docs) to ``key -> value``."""
    sections = ("counters", "gauges", "histograms")
    if all(isinstance(payload.get(s), list) for s in sections):
        flat: dict[str, float] = {}
        for section in ("counters", "gauges"):
            for entry in payload[section]:
                flat[_labeled(entry["name"], entry["labels"])] = float(entry["value"])
        for entry in payload["histograms"]:
            base = _labeled(entry["name"], entry["labels"])
            flat[f"{base}:sum"] = float(entry["sum"])
            flat[f"{base}:count"] = float(entry["count"])
        return flat
    flat = {}
    _walk(payload, "", flat)
    return flat


def _walk(node: Any, path: str, flat: dict[str, float]) -> None:
    """Flatten nested dicts into ``flat``; a module-level function, not
    a closure, so a call leaves no function/cell cycle behind."""
    if isinstance(node, dict):
        for key, value in node.items():
            _walk(value, f"{path}.{key}" if path else str(key), flat)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        flat[path] = float(node)


def load_metrics(path: str) -> dict[str, float]:
    """Load and flatten a JSON metrics dump from disk."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return flatten_metrics(payload)


def diff_metrics(old: dict[str, float], new: dict[str, float]) -> list[MetricDelta]:
    """Deltas for every key present in both dumps, sorted by key.

    Keys present on only one side are not deltas (use set arithmetic on
    the dicts to report them); a value appearing from zero counts as an
    infinite relative increase.
    """
    deltas = []
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if a == b:
            rel = 0.0
        elif a == 0:
            rel = float("inf") if b > 0 else float("-inf")
        else:
            rel = (b - a) / abs(a)
        deltas.append(MetricDelta(key, a, b, rel))
    return deltas
