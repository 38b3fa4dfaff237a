"""Content-addressed on-disk cache for sweep results.

A cache entry's key is ``sha256(worker id | repr(args) | source
digest)`` where the source digest hashes every ``.py`` file under the
installed ``repro`` package.  Invalidation is therefore automatic and
conservative: *any* source change makes every old key unreachable, so
a stale entry can never be replayed against new simulator semantics.
Stale files are simply never read again (delete the cache directory to
reclaim the space).

Values are pickled; sweep workers return small dataclasses (rows of a
figure table), never large arrays.

Entries are crash-safe: writes go through a temp file + ``os.replace``
(no torn entries even with concurrent sweeps), and every entry carries
an integrity footer — a magic marker plus the sha256 of the pickled
payload.  A truncated, bit-flipped, or otherwise corrupted entry is
*quarantined* on read (moved aside into ``quarantine/`` for forensics)
and reported as a miss, so the sweep recomputes the point instead of
crashing or silently replaying poison.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Callable

__all__ = ["ResultCache", "point_identity", "source_digest"]

DEFAULT_CACHE_DIR = ".repro-perf-cache"

#: integrity footer: MAGIC + 64 hex chars of sha256(payload), appended
#: after the pickled payload.  Fixed-size, so reads can split payload
#: from footer without parsing the pickle stream.
_MAGIC = b"\n#repro-cache-sha256:"
_FOOTER_LEN = len(_MAGIC) + 64


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """Hash of every repro source file (hex). Computed once per process."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def point_identity(fn: Callable, args: tuple, variant: str = "") -> str:
    """Source-independent identity of one sweep point.

    It names *which* point a cache key belongs to, and survives source
    edits (which change the key but not the identity).  ``repr(args)``
    must be a faithful value rendering — sweep workers take primitives
    and frozen dataclasses, which it is.
    """
    return f"{fn.__module__}.{fn.__qualname__}|{args!r}|{variant}"


class ResultCache:
    """Pickle store under ``root``, one file per key."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: corrupted entries detected this process: (key, reason)
        self.quarantined: list[tuple[str, str]] = []

    def key(self, fn: Callable, args: tuple, variant: str = "") -> str:
        """Cache key for calling ``fn(*args)`` against current sources.

        ``variant`` distinguishes entries whose stored *format* differs
        for the same call (e.g. metrics-collecting sweeps store
        ``(result, metrics)`` pairs instead of bare results).
        """
        payload = f"{point_identity(fn, args, variant)}|{source_digest()}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a verified hit, ``(False, None)``
        otherwise.  A present-but-corrupt entry (truncated, flipped
        byte, zero bytes, missing/garbled footer) is quarantined and
        reported as a miss — the caller recomputes."""
        path = self.root / f"{key}.pkl"
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return False, None
        if len(blob) <= _FOOTER_LEN:
            self._quarantine(key, path, "truncated (shorter than the footer)")
            return False, None
        payload, footer = blob[:-_FOOTER_LEN], blob[-_FOOTER_LEN:]
        if not footer.startswith(_MAGIC):
            self._quarantine(key, path, "missing integrity footer")
            return False, None
        if hashlib.sha256(payload).hexdigest().encode() != footer[len(_MAGIC):]:
            self._quarantine(key, path, "sha256 mismatch")
            return False, None
        try:
            return True, pickle.loads(payload)
        except Exception:
            # checksum matched but the pickle is unreadable (e.g. it
            # references a class this process no longer has)
            self._quarantine(key, path, "unpicklable payload")
            return False, None

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (never delete — forensics) and
        record it; the entry becomes a miss."""
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / f"{key}.pkl")
        except OSError:
            pass  # concurrent quarantine of the same entry: fine
        self.quarantined.append((key, reason))

    def put(self, key: str, value: Any) -> None:
        """Atomic write (tmp file + rename) so concurrent sweeps never
        observe a torn entry; the integrity footer makes torn *media*
        (power loss, full disk) detectable at read time too."""
        path = self.root / f"{key}.pkl"
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        payload = pickle.dumps(value)
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(_MAGIC)
            fh.write(hashlib.sha256(payload).hexdigest().encode())
        os.replace(tmp, path)
