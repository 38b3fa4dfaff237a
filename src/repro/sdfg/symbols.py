"""Symbolic sizes for array shapes, map ranges, and loop bounds.

A deliberately small expression language: symbols, integers, and
``+ - * //`` combinations, evaluated against a binding dict at
compile/execution time.  This covers everything the paper's stencil
programs need (``N``, ``N - 1``, ``TSTEPS``...) without dragging in a
computer-algebra system.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Expr",
    "Sym",
    "code_cache_stats",
    "evaluate_expr",
    "expr_to_str",
    "free_symbols",
    "publish_code_cache_stats",
]


class _ExprOps:
    """Mixin giving symbolic nodes arithmetic operators."""

    def __add__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("*", _wrap(other), self)

    def __floordiv__(self, other):  # type: ignore[no-untyped-def]
        return BinOp("//", self, _wrap(other))


@dataclass(frozen=True)
class Sym(_ExprOps):
    """A named integer symbol (array size, loop bound, rank param)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(_ExprOps):
    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


Expr = Union[int, Sym, BinOp]


def _wrap(value) -> Expr:  # type: ignore[no-untyped-def]
    if isinstance(value, (int, Sym, BinOp)):
        return value
    raise TypeError(f"cannot use {type(value).__name__} in a symbolic expression")


#: globals for memoized BinOp evaluation — no builtins reachable
_EVAL_GLOBALS: dict[str, object] = {"__builtins__": {}}

#: bounded shared compile cache, keyed by rendered source.  Nodes keep
#: a direct reference to their code object (the per-evaluation fast
#: path), but the *index* is LRU-bounded: autotuner-style sweeps that
#: build fresh expression trees per point reuse structurally equal
#: entries instead of compiling per instance, and a sweep over
#: unboundedly many distinct shapes cannot grow the index without
#: limit.
CODE_CACHE_CAPACITY = 512
_CODE_LRU: "OrderedDict[str, object]" = OrderedDict()
_code_cache_hits = 0
_code_cache_misses = 0
_code_cache_evictions = 0


def _compile_binop(expr: "BinOp"):
    """Code object for a BinOp tree, via the bounded shared cache.

    Expressions are built once (shapes, memlets, loop bounds) but
    evaluated inside per-iteration loops, so the parse/lowering cost is
    paid a single time and cached on the (frozen) node via its
    ``__dict__``.  Python's own integer arithmetic matches the
    recursive evaluator exactly, ``//`` included.
    """
    global _code_cache_hits, _code_cache_misses, _code_cache_evictions
    src = expr_to_str(expr)
    code = _CODE_LRU.get(src)
    if code is not None:
        _code_cache_hits += 1
        _CODE_LRU.move_to_end(src)
    else:
        _code_cache_misses += 1
        _validate_ops(expr)
        code = compile(src, "<sym>", "eval")
        _CODE_LRU[src] = code
        if len(_CODE_LRU) > CODE_CACHE_CAPACITY:
            _CODE_LRU.popitem(last=False)
            _code_cache_evictions += 1
    object.__setattr__(expr, "_eval_code", code)
    return code


def code_cache_stats() -> dict[str, float]:
    """Size, capacity, and hit/miss/eviction counts of the bounded
    expression-compile cache (process-lifetime totals)."""
    total = _code_cache_hits + _code_cache_misses
    return {
        "size": len(_CODE_LRU),
        "capacity": CODE_CACHE_CAPACITY,
        "hits": _code_cache_hits,
        "misses": _code_cache_misses,
        "evictions": _code_cache_evictions,
        "hit_rate": _code_cache_hits / total if total else 0.0,
    }


def publish_code_cache_stats(registry) -> None:
    """Set ``sdfg.symbols.code_cache.*`` gauges on ``registry``.

    Called on demand (never from the sweep path itself): the stats are
    process-lifetime, so folding them into per-run registries would
    break the byte-identical metrics-dump contract.
    """
    for key, value in code_cache_stats().items():
        registry.gauge(f"sdfg.symbols.code_cache.{key}").set(value)


def evaluate_expr(expr: Expr, bindings: dict[str, int]) -> int:
    """Evaluate ``expr`` with symbol values from ``bindings``."""
    t = type(expr)
    if t is int:
        return expr
    if t is Sym:
        try:
            return int(bindings[expr.name])
        except KeyError:
            raise KeyError(f"unbound symbol {expr.name!r}") from None
    if t is BinOp:
        code = expr.__dict__.get("_eval_code")
        if code is None:
            code = _compile_binop(expr)
        try:
            return int(eval(code, _EVAL_GLOBALS, bindings))  # noqa: S307
        except NameError as exc:
            raise KeyError(f"unbound symbol {exc.name!r}") from None
    if t is bool:
        raise TypeError("booleans are not symbolic expressions")
    if isinstance(expr, int) and not isinstance(expr, bool):
        return int(expr)
    raise TypeError(f"not a symbolic expression: {expr!r}")


def free_symbols(expr: Expr) -> set[str]:
    """Names of the symbols ``expr`` reads."""
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, BinOp):
        return free_symbols(expr.lhs) | free_symbols(expr.rhs)
    return set()


def _validate_ops(expr: Expr) -> None:
    """Reject unknown operators before compiling (error parity with
    the old recursive evaluator)."""
    if isinstance(expr, BinOp):
        if expr.op not in ("+", "-", "*", "//"):
            raise ValueError(f"unknown operator {expr.op!r}")
        _validate_ops(expr.lhs)
        _validate_ops(expr.rhs)
    elif not isinstance(expr, (int, Sym)) or isinstance(expr, bool):
        raise TypeError(f"not a symbolic expression: {expr!r}")


def expr_to_str(expr: Expr) -> str:
    """Render an expression for generated code / debug output."""
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, BinOp):
        return f"({expr_to_str(expr.lhs)} {expr.op} {expr_to_str(expr.rhs)})"
    raise TypeError(f"not a symbolic expression: {expr!r}")
