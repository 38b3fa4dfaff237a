"""Stacked scalars: the value plane of the batched execution backend.

A *batched* run executes B structurally identical sweep points (same
variant, topology, iteration count — differing only in domain size,
or only in an auto-overlap schedule's thread-block split) through ONE
discrete-event simulation.  Every quantity that differs
across the stacked points is carried as a small fixed-width vector:

``BatchVal``
    A configuration-derived value (element counts, byte sizes, block
    counts, fractions).  Arithmetic is element-wise.  Comparisons are
    **uniform-or-raise**: the boolean result must agree across all
    members, otherwise :class:`BatchDivergence` aborts the batch and
    the scheduler falls back to per-point execution.  This is the
    safety net that makes batching *sound*: control flow can never
    silently follow one member's branch on another member's behalf.

``BatchTime``
    A simulated timestamp (a vector clock over the members).  Every
    event's time is, by induction, an (emax, +)-combination of its
    dependencies' times — max-plus algebra over the stack.  Ordering
    (heap ranking, time-advance checks, ready-queue classification)
    uses **member 0 (the pilot)**: structural invariance of the batch
    guarantees every member observes the same dependency structure, so
    the pilot's order is every member's order.  ``emax`` is the join
    used at synchronization points (flag waits, process joins).

Classes are generated per batch width ``B`` with fully unrolled
tuple-literal bodies (``(a[0]+b[0], a[1]+b[1], ...)``), which measures
~40% faster than NumPy at the B≤4 widths sweep batches use and keeps
per-event overhead low enough for the batch to beat per-point runs.
"""

from __future__ import annotations

import math

__all__ = [
    "BatchDivergence",
    "Stacked",
    "WAIT_SPAN",
    "any_member_gt",
    "as_size",
    "as_time",
    "batch_classes",
    "emax",
    "members",
    "pilot",
    "stacked_val",
]


class BatchDivergence(Exception):
    """A comparison's boolean result differed across batch members.

    Raised by :class:`BatchVal` comparisons; the batch scheduler
    catches it and re-runs the group per-point (exact by construction).
    """


class Stacked:
    """Common base of all generated ``BatchVal``/``BatchTime`` classes.

    ``v`` is the member tuple; ``isinstance(x, Stacked)`` is the one
    check runtime code uses to route stacked quantities.
    """

    __slots__ = ("v",)

    def __init__(self, v: tuple) -> None:
        self.v = v


#: sentinel ``meta`` for sync spans where only *some* batch members
#: actually waited; the demultiplexer drops zero-duration members and
#: rewrites the meta to None, so the sentinel never reaches output
WAIT_SPAN = object()


def _divergent(op: str, a: tuple, b) -> BatchDivergence:
    return BatchDivergence(f"comparison {op} diverges across batch members: "
                           f"{a!r} {op} {getattr(b, 'v', b)!r}")


_ARITH = [
    ("__add__", "+"), ("__sub__", "-"), ("__mul__", "*"),
    ("__truediv__", "/"), ("__floordiv__", "//"), ("__mod__", "%"),
]
_RARITH = [
    ("__radd__", "+"), ("__rsub__", "-"), ("__rmul__", "*"),
    ("__rtruediv__", "/"), ("__rfloordiv__", "//"), ("__rmod__", "%"),
]
_CMP = [
    ("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"),
    ("__ge__", ">="), ("__eq__", "=="), ("__ne__", "!="),
]


def _gen_source(B: int) -> str:
    """Source of the BatchVal/BatchTime pair for batch width ``B``."""
    idx = range(B)
    lines: list[str] = []
    w = lines.append

    def tup(expr: str) -> str:
        # tuple literal ("(e0, e1, ...)") — guaranteed length >= 2
        return "(" + ", ".join(expr.format(i=i) for i in idx) + ")"

    # ---------------- BatchVal ----------------
    w("class BV(Stacked):")
    w("    __slots__ = ()")
    w("    def __repr__(self):")
    w("        return f'BatchVal{self.v!r}'")
    for name, op in _ARITH:
        w(f"    def {name}(self, o):")
        w("        a = self.v; c = o.__class__")
        w("        if c is float or c is int:")
        w(f"            return BV({tup('a[{i}] %s o' % op)})")
        w("        if c is BV:")
        w("            b = o.v")
        w(f"            return BV({tup('a[{i}] %s b[{i}]' % op)})")
        w("        if c is BT:")
        w("            b = o.v")
        w(f"            return BT({tup('a[{i}] %s b[{i}]' % op)})")
        w("        return NotImplemented")
    for name, op in _RARITH:
        w(f"    def {name}(self, o):")
        w("        a = self.v")
        w("        if o.__class__ is float or o.__class__ is int:")
        w(f"            return BV({tup('o %s a[{i}]' % op)})")
        w("        return NotImplemented")
    w("    def __neg__(self):")
    w("        a = self.v")
    w(f"        return BV({tup('-a[{i}]')})")
    w("    def __abs__(self):")
    w("        a = self.v")
    w(f"        return BV({tup('abs(a[{i}])')})")
    w("    def __ceil__(self):")
    w("        a = self.v")
    w(f"        return BV({tup('_ceil(a[{i}])')})")
    w("    def __floor__(self):")
    w("        a = self.v")
    w(f"        return BV({tup('_floor(a[{i}])')})")
    w("    def add_to_time(self, now):")
    w("        a = self.v")
    w("        if now.__class__ is float or now.__class__ is int:")
    w(f"            return BT({tup('now + a[{i}]')})")
    w("        b = now.v")
    w(f"        return BT({tup('b[{i}] + a[{i}]')})")
    w("    def __divmod__(self, o):")
    w("        a = self.v")
    w("        if o.__class__ is float or o.__class__ is int:")
    w(f"            q = BV({tup('a[{i}] // o')})")
    w(f"            r = BV({tup('a[{i}] % o')})")
    w("            return (q, r)")
    w("        if o.__class__ is BV:")
    w("            b = o.v")
    w(f"            q = BV({tup('a[{i}] // b[{i}]')})")
    w(f"            r = BV({tup('a[{i}] % b[{i}]')})")
    w("            return (q, r)")
    w("        return NotImplemented")
    # uniform-or-raise comparisons (True/False are singletons: `is`)
    for name, op in _CMP:
        w(f"    def {name}(self, o):")
        w("        a = self.v")
        w("        if o.__class__ is BV or o.__class__ is BT:")
        w("            b = o.v")
        for i in idx:
            w(f"            r{i} = a[{i}] {op} b[{i}]")
        w("        else:")
        for i in idx:
            w(f"            r{i} = a[{i}] {op} o")
        cond = " and ".join(f"r0 is r{i}" for i in range(1, B)) or "True"
        w(f"        if {cond}:")
        w("            return r0")
        w(f"        raise _divergent({op!r}, a, o)")
    w("    def __bool__(self):")
    w("        a = self.v")
    for i in idx:
        w(f"        r{i} = bool(a[{i}])")
    cond = " and ".join(f"r0 is r{i}" for i in range(1, B)) or "True"
    w(f"        if {cond}:")
    w("            return r0")
    w("        raise _divergent('bool', a, None)")
    w("    def __hash__(self):")
    w("        a = self.v")
    cond = " and ".join(f"a[0] == a[{i}]" for i in range(1, B)) or "True"
    w(f"        if {cond}:")
    w("            return hash(a[0])")
    w("        raise _divergent('hash', a, None)")

    # ---------------- BatchTime ----------------
    w("class BT(Stacked):")
    w("    __slots__ = ()")
    w("    def __repr__(self):")
    w("        return f'BatchTime{self.v!r}'")
    for name, op in _ARITH[:4]:  # + - * / are all a time ever needs
        w(f"    def {name}(self, o):")
        w("        a = self.v; c = o.__class__")
        w("        if c is float or c is int:")
        w(f"            return BT({tup('a[{i}] %s o' % op)})")
        w("        if c is BT or c is BV:")
        w("            b = o.v")
        w(f"            return BT({tup('a[{i}] %s b[{i}]' % op)})")
        w("        return NotImplemented")
    for name, op in _RARITH[:4]:
        w(f"    def {name}(self, o):")
        w("        a = self.v")
        w("        if o.__class__ is float or o.__class__ is int:")
        w(f"            return BT({tup('o %s a[{i}]' % op)})")
        w("        return NotImplemented")
    # pilot-ordered comparisons: structural invariance makes member 0's
    # event order every member's event order
    for name, op in _CMP:
        w(f"    def {name}(self, o):")
        w("        p = self.v[0]")
        w("        if o.__class__ is BT or o.__class__ is BV:")
        w(f"            return p {op} o.v[0]")
        w(f"        return p {op} o")
    w("    def __hash__(self):")
    w("        return hash(self.v[0])")
    w("    def add_to_time(self, now):")
    w("        a = self.v")
    w("        if now.__class__ is float or now.__class__ is int:")
    w(f"            return BT({tup('now + a[{i}]')})")
    w("        b = now.v")
    w(f"        return BT({tup('b[{i}] + a[{i}]')})")
    w("    def emax(self, o):")
    w("        a = self.v")
    w("        if o.__class__ is float or o.__class__ is int:")
    w(f"            return BT({tup('a[{i}] if a[{i}] >= o else o')})")
    w("        b = o.v")
    w(f"        return BT({tup('a[{i}] if a[{i}] >= b[{i}] else b[{i}]')})")
    return "\n".join(lines)


_CLASS_CACHE: dict[int, tuple[type, type]] = {}


def batch_classes(B: int) -> tuple[type, type]:
    """The ``(BatchVal, BatchTime)`` class pair for batch width ``B``."""
    pair = _CLASS_CACHE.get(B)
    if pair is None:
        if B < 2:
            raise ValueError("batch width must be >= 2")
        ns: dict = {"Stacked": Stacked, "_divergent": _divergent,
                    "_ceil": math.ceil, "_floor": math.floor}
        exec(compile(_gen_source(B), f"<stacked B={B}>", "exec"), ns)
        bv, bt = ns["BV"], ns["BT"]
        bv.__name__ = bv.__qualname__ = f"BatchVal{B}"
        bt.__name__ = bt.__qualname__ = f"BatchTime{B}"
        bv._time = bt
        bt._time = bt
        pair = _CLASS_CACHE[B] = (bv, bt)
    return pair


def stacked_val(values) -> Stacked:
    """Stack per-member config values into a :class:`BatchVal`."""
    values = tuple(values)
    return batch_classes(len(values))[0](values)


# ---------------- runtime helpers (engine / demux) ----------------


def emax(x, y):
    """Element-wise max of two times (floats and/or BatchTimes)."""
    if y is None:
        return x
    if x.__class__ is float or x.__class__ is int:
        if y.__class__ is float or y.__class__ is int:
            return x if x >= y else y
        return y.emax(x)
    return x.emax(y)


def as_time(now, dt):
    """``now + dt`` promoted to a :class:`BatchTime` when ``dt`` stacks.

    The engine's Delay handler calls this for non-float durations so a
    stacked duration added to a (still scalar) clock yields a *time*
    vector, not a value vector — times and values compare differently.
    """
    if not isinstance(dt, Stacked):
        return now + dt
    return dt.add_to_time(now)


def as_size(nbytes):
    """``int(nbytes)`` that lets stacked byte counts pass through."""
    if isinstance(nbytes, Stacked):
        return nbytes
    return int(nbytes)


def any_member_gt(end, start) -> bool:
    """True when any member's ``end`` exceeds its ``start``."""
    ev = end.v if isinstance(end, Stacked) else None
    sv = start.v if isinstance(start, Stacked) else None
    if ev is None:
        if sv is None:
            return end > start
        return any(end > s for s in sv)
    if sv is None:
        return any(e > start for e in ev)
    return any(e > s for e, s in zip(ev, sv))


def members(x, B: int) -> tuple:
    """Per-member view of ``x``: broadcast scalars, unpack stacks."""
    if isinstance(x, Stacked):
        return x.v
    return (x,) * B


def pilot(x):
    """Member-0 view of ``x`` (scalar passthrough)."""
    if isinstance(x, Stacked):
        return x.v[0]
    return x
