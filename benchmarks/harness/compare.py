"""Compare two results documents, workload by workload.

For every end-to-end metric the verdict is one of:

``unresolved``
    either side's spread (quartile distance over its median) is wider
    than the metric's bound, so a change within it cannot be told
    from noise;
``worse`` / ``improved``
    the median moved in the bad / good direction by more than the
    bound;
``unchanged``
    otherwise.

Exact metrics (bound 0) are ``unchanged`` only when equal; any change
is ``worse`` — a deterministic simulated result moved.  Across
different seeds they are ``unresolved``: the inputs differ.
"""

from __future__ import annotations

import json
from typing import Any

from benchmarks.harness.driver import FORMAT


def verdict(base: dict, new: dict, same_seed: bool = True) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` for one metric."""
    bound = base["bound"]
    b, n = base["median"], new["median"]
    rel = (n - b) / b if b else (0.0 if n == b else float("inf"))
    if bound == 0.0:
        if n == b:
            return "unchanged", rel
        return ("worse" if same_seed else "unresolved"), rel
    for side in (base, new):
        if side["median"] and (side["q3"] - side["q1"]) / side["median"] > bound:
            return "unresolved", rel
    badness = rel if base["better"] == "lower" else -rel
    if badness > bound:
        return "worse", rel
    if badness < -bound:
        return "improved", rel
    return "unchanged", rel


def _failed_share(entry: dict) -> float:
    return entry["failed"] / entry["ops"] if entry["ops"] else 0.0


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines, and whether ``b`` regressed against ``a``."""
    lines = [f"{'workload':<9} {'metric':<16} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict"]
    regressed = False
    same_seed = a.get("seed") == b.get("seed")
    for name in sorted(a["workloads"].keys() | b["workloads"].keys()):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name:<9} only in {'B' if wa is None else 'A'}")
            continue
        for metric in [m for m in wa["metrics"] if m in wb["metrics"]]:
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            result, rel = verdict(ma, mb, same_seed)
            regressed |= result == "worse"
            lines.append(
                f"{name:<9} {metric:<16} {_cell(ma):>30} {_cell(mb):>30} "
                f"{rel:>+8.2%} {ma['bound']:>6.0%}  {result}")
        if _failed_share(wb) > _failed_share(wa):
            regressed = True
            lines.append(f"{name:<9} failed ops: {wa['failed']}/{wa['ops']} -> "
                         f"{wb['failed']}/{wb['ops']}  worse")
        lines += _count_changes(name, wa.get("layers"), wb.get("layers"))
    return lines, regressed


def _cell(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] {m['unit']}"


def _count_changes(name: str, la: dict | None, lb: dict | None) -> list[str]:
    """Every per-layer count whose median differs between the sides."""
    if not la or not lb:
        return []
    out = []
    for metric in sorted(la.keys() & lb.keys()):
        ca, cb = la[metric], lb[metric]
        if ca["unit"] in ("count", "B") and ca["median"] != cb["median"]:
            out.append(f"{name:<9} {metric}: {ca['median']:g} -> {cb['median']:g}")
    return out


def load(path: str) -> dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise SystemExit(f"{path}: not a {FORMAT} document")
    return doc
