"""Process-level warm-start store for expensive per-point setup.

Sweep workers rebuild the same heavyweight inputs for every point: the
DaCe figures, for instance, parse and transform one SDFG per (GPU
count, pipeline) pair even though the graph depends only on the
pipeline.  :func:`warm` memoizes such templates once per worker
process so later points skip the build.

Determinism contract: callers must NOT hand the cached template itself
to code that mutates it or that records cache-visibility metrics
against it.  Pass ``copy=`` (usually :func:`copy.deepcopy`) so every
point receives a fresh instance — the per-point behavior, traces, and
metrics are then byte-identical whether the template was warm or cold,
and identical at any ``--jobs`` setting (worker processes simply start
with a cold store).  What *is* shared safely behind the copy are
process-wide immutable caches keyed by content — e.g. the tasklet
compile cache in :mod:`repro.sdfg.codegen.executor`.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["clear", "stats", "warm"]

#: template store, one per worker process
_store: dict[Any, Any] = {}
_hits = 0
_misses = 0


def warm(key: Any, build: Callable[[], Any], *,
         copy: Callable[[Any], Any] | None = None) -> Any:
    """Get-or-build the template for ``key``; return a per-point instance.

    ``build``
        Zero-argument constructor, called at most once per process for
        a given ``key`` (which must be hashable and fully describe the
        build — include function qualnames, not just positional args).
    ``copy``
        Applied to the cached template to produce the instance handed
        back (e.g. ``copy.deepcopy``).  ``None`` returns the template
        itself — only safe when every consumer treats it as immutable.
    """
    global _hits, _misses
    try:
        template = _store[key]
        _hits += 1
    except KeyError:
        template = _store[key] = build()
        _misses += 1
    return copy(template) if copy is not None else template


def stats() -> tuple[int, int, int]:
    """``(hits, misses, live templates)`` for this process."""
    return _hits, _misses, len(_store)


def clear() -> None:
    """Drop every template (tests; long-lived processes after edits)."""
    global _hits, _misses
    _store.clear()
    _hits = 0
    _misses = 0
