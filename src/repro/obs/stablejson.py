"""The one byte-stable JSON dump convention, shared by every exporter.

Every tool in this repo that persists a JSON report (metrics dumps,
sanitizer reports, chaos-matrix reports, timelines, what-if reports)
promises the same contract: *identical inputs produce identical
bytes*.  Before this module each subsystem carried its own copy of the
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` incantation; now
they all call :func:`dumps_stable`, and the contract is pinned by one
test (``tests/obs/test_stablejson.py``) instead of three conventions
drifting apart.

The rules:

* keys sorted at every nesting level (``sort_keys=True``);
* two-space indentation, default separators;
* floats rendered by :func:`repr` via the stock encoder — Python
  guarantees shortest round-trip repr, so equal values are equal text;
* exactly one trailing newline (POSIX text file, clean ``cmp``/diffs);
* no NaN/Infinity — they are not JSON and would break re-parsing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["dump_stable", "dumps_stable"]


def dumps_stable(payload: Any) -> str:
    """Render ``payload`` as byte-stable JSON text (see module docs)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_stable(payload: Any, path: str | Path) -> Path:
    """Write :func:`dumps_stable` text to ``path``; returns the path."""
    path = Path(path)
    path.write_text(dumps_stable(payload))
    return path
