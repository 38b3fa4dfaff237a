"""Append-only perf history keyed by point identity.

Every sweep point already has a source-independent name — its
:func:`~repro.perf.cache.point_identity`.  This module turns
runs into a *trajectory*: each run appends one JSONL record per point
(simulated per-iteration time, overlap fraction, wall time, metrics
digest), and ``repro.obs regress`` compares two runs with noise-aware
thresholds.

Design rules:

**Append-only JSONL.**  One compact, key-sorted JSON object per line.
Appending never rewrites history, concurrent readers see a prefix, and
the file diffs/merges like a log.  Records carry a ``run`` label
(``--run-label``, e.g. a git SHA or ``base``/``check``) and the
normalized point ``id``.

**Crash-safe lines.**  Every record is stamped with a ``_sha``
checksum (first 12 hex of sha256 over the rest of the record) and
appended with a single ``write`` call.  Reads are *tolerant*: a torn
tail from a killed writer, a flipped byte, or a concurrent-append
interleaving is detected, skipped, and reported via
:attr:`HistoryStore.corrupt` — one damaged line costs one record,
never the whole history.  Records written before the checksum existed
(no ``_sha`` field) still load.

**Identity normalization.**  A faulted run's identities differ
textually from clean ones — the fault profile travels inside the
config repr (``fault_profile='degraded'``) and as a positional argument
(``'degraded'``).  :func:`normalized_identity` replaces the profile's
``repr`` with ``None`` so the *same point* under a straggler lands on
the *same history key* as its clean baseline — which is exactly what
lets the regression gate see the slowdown instead of two disjoint
point sets.  The profile is still recorded per record.

**Gate on simulated time.**  The default regression field is
``per_iter_us`` — deterministic simulated time, so re-running the same
code against its own baseline passes *exactly* (the CI gate's
self-consistency check).  Wall time is recorded informationally and
can be gated explicitly (``--field wall_s``) with a generous
tolerance.

**Median of N.**  A run may contain several records per id (repeat
sweeps); comparisons use the per-id median, so one noisy repetition
cannot flip the verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from statistics import median
from typing import Any, Iterable

__all__ = [
    "HistoryStore",
    "RegressEntry",
    "RegressReport",
    "normalized_identity",
    "regress",
    "regress_table",
]

HISTORY_FORMAT = "repro-perf-history-v1"

#: gateable fields and whether an *increase* is a regression
LOWER_IS_BETTER = frozenset({"per_iter_us", "comm_us_per_iter", "wall_s"})
HIGHER_IS_BETTER = frozenset({"overlap", "overlap_ratio", "events_per_s"})


def normalized_identity(identity: str, profile: str | None = None) -> str:
    """Strip a fault profile out of a point identity (see module docs).

    ``repr(profile)`` (e.g. ``'degraded'`` with quotes) appears both in
    the config's dataclass repr and as a positional argument; replacing
    it with ``None`` reproduces the clean run's identity text.  Profile
    names are simple identifiers (optionally ``name@seed``), so the
    quoted text cannot collide with anything else in the repr.
    """
    if profile is None:
        return identity
    return identity.replace(repr(profile), "None")


def _record_sha(record: dict[str, Any]) -> str:
    """Integrity mark: sha256 (first 12 hex) over the record minus its
    ``_sha`` field, dumped with sorted keys."""
    body = {k: v for k, v in record.items() if k != "_sha"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()[:12]


class HistoryStore:
    """Append-only JSONL store of per-point perf records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: damaged lines seen by the last :meth:`records` call, as
        #: ``(lineno, reason)`` — quarantined (skipped), never raised
        self.corrupt: list[tuple[int, str]] = []

    def append(self, record: dict[str, Any]) -> None:
        """Append one checksummed record (must carry ``run`` and
        ``id``).  The line goes out in a single ``write``, so a crash
        or a concurrent appender can tear at most this one record."""
        if "run" not in record or "id" not in record:
            raise ValueError(f"history record needs 'run' and 'id': {record}")
        record = dict(record)
        record["_sha"] = _record_sha(record)
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")

    def extend(self, records: Iterable[dict[str, Any]]) -> int:
        n = 0
        for record in records:
            self.append(record)
            n += 1
        return n

    def records(self) -> list[dict[str, Any]]:
        """All intact records in file order.

        Tolerant by design (the store must survive killed writers):
        unparseable lines and checksum mismatches are skipped and
        reported in :attr:`corrupt` instead of raising.  Legacy records
        without a ``_sha`` field are accepted as-is.
        """
        try:
            text = self.path.read_text()
        except OSError:
            self.corrupt = []
            return []
        out = []
        corrupt: list[tuple[int, str]] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt.append((lineno, "unparseable JSON (torn line?)"))
                continue
            if not isinstance(record, dict):
                corrupt.append((lineno, "not a JSON object"))
                continue
            if "_sha" in record and record["_sha"] != _record_sha(record):
                corrupt.append((lineno, "checksum mismatch"))
                continue
            out.append(record)
        self.corrupt = corrupt
        return out

    def runs(self) -> list[str]:
        """Distinct run labels in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.records():
            seen.setdefault(record["run"], None)
        return list(seen)

    def latest_run(self) -> str | None:
        runs = self.runs()
        return runs[-1] if runs else None

    def values(self, run: str, field_name: str) -> dict[str, list[float]]:
        """Per-id list of a numeric field's values within one run."""
        out: dict[str, list[float]] = {}
        for record in self.records():
            if record["run"] != run:
                continue
            value = record.get(field_name)
            if isinstance(value, (int, float)):
                out.setdefault(record["id"], []).append(float(value))
        return out

    def medians(self, run: str, field_name: str) -> dict[str, float]:
        """Per-id median of a field within one run (noise robustness)."""
        return {pid: median(vals)
                for pid, vals in self.values(run, field_name).items()}

    def wall_medians(self) -> dict[str, float]:
        """Per-id median wall seconds across *all* runs — the ETA
        estimate the live progress renderer uses."""
        out: dict[str, list[float]] = {}
        for record in self.records():
            value = record.get("wall_s")
            if isinstance(value, (int, float)):
                out.setdefault(record["id"], []).append(float(value))
        return {pid: median(vals) for pid, vals in out.items()}


@dataclass(frozen=True)
class RegressEntry:
    """One compared point."""

    id: str
    baseline: float | None
    current: float | None
    rel: float  #: signed relative change, (current - baseline) / baseline
    tol: float
    status: str  #: "ok" | "improved" | "regression" | "missing" | "added"


@dataclass
class RegressReport:
    """Outcome of one run-vs-baseline comparison."""

    run: str
    baseline_run: str
    field: str
    entries: list[RegressEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[RegressEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _tolerance(identity: str, rtol: float,
               rtol_for: dict[str, float] | None) -> float:
    """Per-point tolerance: the last matching fnmatch pattern wins."""
    tol = rtol
    for pattern, value in (rtol_for or {}).items():
        if fnmatch(identity, pattern):
            tol = value
    return tol


def regress(store: HistoryStore, *, run: str | None = None,
            baseline: str | None = None, field_name: str = "per_iter_us",
            rtol: float = 0.05,
            rtol_for: dict[str, float] | None = None) -> RegressReport:
    """Compare ``run`` against ``baseline`` on one field.

    Defaults: ``run`` is the latest label in the store, ``baseline``
    the first label that differs from ``run``.  A point regresses when
    its median moves in the *bad* direction (field-dependent) by more
    than its tolerance; points present on only one side are reported
    (``missing`` / ``added``) but never fail the gate — the point set
    may legitimately change between commits.
    """
    runs = store.runs()
    if run is None:
        run = runs[-1] if runs else None
    if run is None or run not in runs:
        raise ValueError(f"no records for run {run!r} in {store.path} "
                         f"(runs: {runs})")
    if baseline is None:
        others = [r for r in runs if r != run]
        if not others:
            raise ValueError(f"no baseline run in {store.path}: only {runs}")
        baseline = others[0]
    if baseline not in runs:
        raise ValueError(f"no records for baseline run {baseline!r} in "
                         f"{store.path} (runs: {runs})")
    if field_name in HIGHER_IS_BETTER:
        bad_sign = -1.0
    else:
        # unknown fields default to lower-is-better (they are times)
        bad_sign = 1.0
    base = store.medians(baseline, field_name)
    cur = store.medians(run, field_name)
    report = RegressReport(run, baseline, field_name)
    for pid in sorted(base.keys() | cur.keys()):
        tol = _tolerance(pid, rtol, rtol_for)
        if pid not in cur:
            report.entries.append(RegressEntry(pid, base[pid], None, 0.0, tol,
                                               "missing"))
            continue
        if pid not in base:
            report.entries.append(RegressEntry(pid, None, cur[pid], 0.0, tol,
                                               "added"))
            continue
        b, c = base[pid], cur[pid]
        rel = (c - b) / b if b else (0.0 if c == b else float("inf"))
        badness = bad_sign * rel
        if badness > tol:
            status = "regression"
        elif badness < 0.0:
            status = "improved"
        else:
            status = "ok"
        report.entries.append(RegressEntry(pid, b, c, rel, tol, status))
    return report


def regress_table(report: RegressReport, *, show_ok: bool = False) -> str:
    """Plain-text verdict listing (regressions always shown)."""
    lines = [f"regress: run {report.run!r} vs baseline "
             f"{report.baseline_run!r} on {report.field}"]
    counts: dict[str, int] = {}
    for entry in report.entries:
        counts[entry.status] = counts.get(entry.status, 0) + 1
        if entry.status in ("ok", "improved") and not show_ok:
            continue
        if entry.status in ("missing", "added"):
            lines.append(f"  [{entry.status}] {entry.id}")
            continue
        lines.append(
            f"  [{entry.status}] {entry.id}: "
            f"{entry.baseline:g} -> {entry.current:g} "
            f"({100.0 * entry.rel:+.1f}%, tol {100.0 * entry.tol:.1f}%)"
        )
    summary = ", ".join(f"{counts.get(s, 0)} {s}" for s in
                        ("ok", "improved", "regression", "missing", "added")
                        if counts.get(s, 0))
    lines.append(f"{len(report.entries)} point(s) compared"
                 + (f": {summary}" if summary else ""))
    return "\n".join(lines)
