"""Compiled tasklet plans: the executor's map-specialization pass.

The simulator executor is the "runtime" half of code generation, and
its data path used to re-parse every tasklet's expression source with
``eval`` on every kernel execution.  This module compiles each tasklet
once and classifies its map:

``VECTORIZED``
    The expression is an affine elementwise/stencil combination of
    array subscripts (constant/symbolic slice bounds, arithmetic
    operators) — the whole map executes as a single NumPy slice
    expression, exactly like the hand-vectorized source the frontend
    parsed.

``SCALAR``
    The codegen-faithful fallback: the map runs point by point the way
    the emitted CUDA kernel would (one ``__i``-indexed evaluation per
    map point).  Only available for affine tasklets; used when
    vectorization is disabled, and by the tests that assert the two
    paths produce bit-identical arrays.

``GENERIC``
    Anything the affine analysis cannot prove (calls, unknown names,
    fancy indexing): evaluated as one compiled NumPy expression — the
    pre-existing semantics, minus the per-execution parse.

Bit-identity of VECTORIZED vs SCALAR holds because both evaluate the
same IEEE operation dag per element in the same order; NumPy's
elementwise kernels and Python's scalar float arithmetic agree to the
last ULP for ``+ - * /``.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.metrics import active_metrics
from repro.sdfg.memlet import Memlet, Range
from repro.sdfg.nodes import AccessNode, Tasklet

__all__ = [
    "FASTPATH_MODES",
    "MapMode",
    "StatePlan",
    "TaskletPlan",
    "bound_counter",
    "plan_state",
    "specialize_maps",
]

#: legal executor tasklet-execution modes (see SDFGExecutor)
FASTPATH_MODES = ("vector", "scalar")


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)

#: compile cache shared across executors (keyed by source text)
_CODE_CACHE: dict[str, Any] = {}
_EVAL_GLOBALS: dict[str, Any] = {"__builtins__": {}, "np": np}


def _compiled(source: str):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(source, "<tasklet>", "eval")
    return code


class MapMode(enum.Enum):
    VECTORIZED = "vectorized"
    SCALAR = "scalar"
    GENERIC = "generic"


@dataclass(frozen=True)
class _ReadRef:
    """One affine array subscript in a tasklet expression."""

    array: str
    #: per-dim (kind, payload): ("slice", (start_src, stop_src)) with
    #: ``None`` meaning the axis end, or ("index", index_src)
    dims: tuple[tuple[str, Any], ...]
    #: placeholder base name this subscript was rewritten to
    token: str


class TaskletPlan:
    """Everything needed to execute one tasklet without re-parsing."""

    __slots__ = ("tasklet", "out_memlet", "mode", "vector_code", "scalar_code", "reads")

    def __init__(self, tasklet: Tasklet, out_memlet: Memlet, mode: MapMode,
                 vector_code, scalar_code, reads: tuple[_ReadRef, ...]) -> None:
        self.tasklet = tasklet
        self.out_memlet = out_memlet
        self.mode = mode
        self.vector_code = vector_code
        self.scalar_code = scalar_code
        self.reads = reads

    # -- execution -----------------------------------------------------------

    def run_vectorized(self, arrays: dict[str, np.ndarray],
                       bindings: dict[str, int], index: tuple) -> None:
        """Whole-map NumPy slice execution (also the GENERIC path) into
        the output subset ``index`` that :meth:`StatePlan.bind` resolved."""
        namespace = {**arrays, **bindings}
        value = eval(self.vector_code, _EVAL_GLOBALS, namespace)  # noqa: S307
        arrays[self.out_memlet.data][index] = value

    def run_scalar(self, arrays: dict[str, np.ndarray],
                   bindings: dict[str, int]) -> None:
        """Point-by-point execution over the map's iteration space, the
        way the generated kernel walks it."""
        if self.scalar_code is None:
            raise ValueError(
                f"tasklet {self.tasklet.label!r} has no scalar plan (mode={self.mode})"
            )
        out = arrays[self.out_memlet.data]
        out_index = self.out_memlet.resolve(out.shape, bindings)
        # iteration axes: out dims that are slices; others are fixed
        starts, counts, axes = [], [], []
        fixed = list(out_index)
        for d, idx in enumerate(out_index):
            if isinstance(idx, slice):
                starts.append(idx.start)
                counts.append(idx.stop - idx.start)
                axes.append(d)
        namespace: dict[str, Any] = {**bindings}
        for read in self.reads:
            arr = arrays[read.array]
            namespace[read.token] = arr
            for d, (kind, payload) in enumerate(read.dims):
                size = arr.shape[d]
                if kind == "index":
                    value = eval(_compiled(payload), _EVAL_GLOBALS, bindings)  # noqa: S307
                    namespace[f"{read.token}_c{d}"] = value + size if value < 0 else value
                else:
                    start_src, _stop = payload
                    start = 0 if start_src is None else eval(  # noqa: S307
                        _compiled(start_src), _EVAL_GLOBALS, bindings)
                    if start < 0:
                        start += size
                    # scalar index along axis d: __i{d} + (read_start - out_start)
                    out_dim = out_index[d]
                    if not isinstance(out_dim, slice):
                        raise ValueError(
                            f"read slice of {read.array} along dim {d} has no "
                            f"matching map axis in {self.out_memlet}"
                        )
                    namespace[f"{read.token}_o{d}"] = start - out_dim.start
        code = self.scalar_code
        for point in np.ndindex(*counts):
            for k, axis in enumerate(axes):
                namespace[f"__i{axis}"] = starts[k] + point[k]
                fixed[axis] = starts[k] + point[k]
            out[tuple(fixed)] = eval(code, _EVAL_GLOBALS, namespace)  # noqa: S307


class StatePlan:
    """Compiled plans for every tasklet of one compute state."""

    __slots__ = ("plans",)

    def __init__(self, plans: tuple[TaskletPlan, ...]) -> None:
        self.plans = plans

    def bind(self, arrays: dict[str, np.ndarray], bindings: dict[str, int],
             *, mode: str = "vector") -> Callable[[dict[str, int]], None]:
        """Resolve each tasklet's path, output slice and ``map_exec``
        counter once; the returned callable runs the state on ``arrays``."""
        runs = []
        for plan in self.plans:
            generic = plan.mode is MapMode.GENERIC
            taken = ("scalar" if mode == "scalar" and not generic
                     else "generic" if generic else "vectorized")
            index = (None if taken == "scalar" else
                     plan.out_memlet.resolve(arrays[plan.out_memlet.data].shape, bindings))
            runs.append((plan, index, bound_counter("sdfg.fastpath.map_exec", mode=taken)))

        def execute(bindings: dict[str, int]) -> None:
            for plan, index, count in runs:
                if index is None:
                    plan.run_scalar(arrays, bindings)
                else:
                    plan.run_vectorized(arrays, bindings, index)
                count()
        return execute

    def execute(self, arrays: dict[str, np.ndarray], bindings: dict[str, int],
                *, mode: str = "vector") -> None:
        self.bind(arrays, bindings, mode=mode)(bindings)


def _no_count() -> None:
    pass


def bound_counter(name: str, **labels: Any) -> Callable[[], None]:
    """``inc()`` of one counter in the active registry, bound once.  The
    series is created on the first call, so a bound operation that never
    runs leaves no zero row in the metrics dump."""
    m = active_metrics()
    if m is None:
        return _no_count
    handle = None

    def inc() -> None:
        nonlocal handle
        if handle is None:
            handle = m.counter(name, **labels)
        handle.inc()
    return inc


# ---------------------------- analysis ----------------------------------------


class _NotAffine(Exception):
    pass


class _Rewriter(ast.NodeTransformer):
    """Validate affinity and rewrite array subscripts to scalar form.

    ``A[1:-1, 2:]`` becomes ``A[__i0 + A_kN_o0, __i1 + A_kN_o1]`` where
    the ``*_o{d}`` offsets (read start minus map start, negatives
    resolved) are bound at execution time; integer-indexed dims become
    ``*_c{d}`` constants.
    """

    def __init__(self, arrays: dict[str, Any], symbols: set[str]) -> None:
        self.arrays = arrays
        self.symbols = symbols
        self.reads: list[_ReadRef] = []

    # structural whitelist -------------------------------------------------

    def visit_Expression(self, node):
        return ast.Expression(body=self.visit(node.body))

    def visit_BinOp(self, node):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise _NotAffine(f"operator {type(node.op).__name__}")
        return ast.BinOp(left=self.visit(node.left), op=node.op,
                         right=self.visit(node.right))

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise _NotAffine(f"unary {type(node.op).__name__}")
        return ast.UnaryOp(op=node.op, operand=self.visit(node.operand))

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise _NotAffine(f"constant {node.value!r}")
        return node

    def visit_Name(self, node):
        if node.id in self.arrays:
            raise _NotAffine(f"whole-array reference {node.id!r}")
        if node.id not in self.symbols:
            raise _NotAffine(f"unknown name {node.id!r}")
        return node

    def visit_Subscript(self, node):
        if not (isinstance(node.value, ast.Name) and node.value.id in self.arrays):
            raise _NotAffine("subscript of a non-array")
        array = node.value.id
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        ndim = len(self.arrays[array].shape)
        if len(parts) != ndim:
            raise _NotAffine(f"{array}: partial index ({len(parts)} of {ndim} dims)")
        dims: list[tuple[str, Any]] = []
        scalar_dims: list[ast.expr] = []
        for d, part in enumerate(parts):
            if isinstance(part, ast.Slice):
                if part.step is not None:
                    raise _NotAffine("strided slice")
                start_src = None if part.lower is None else self._bound_src(part.lower)
                stop_src = None if part.upper is None else self._bound_src(part.upper)
                dims.append(("slice", (start_src, stop_src)))
            else:
                dims.append(("index", self._bound_src(part)))
        # dedupe identical subscripts; distinct ones get numbered tokens
        ref = _ReadRef(array, tuple(dims), "")
        for seen in self.reads:
            if (seen.array, seen.dims) == (ref.array, ref.dims):
                ref = seen
                break
        else:
            ref = _ReadRef(array, tuple(dims), f"__r{len(self.reads)}_{array}")
            self.reads.append(ref)
        for d, (kind, _payload) in enumerate(ref.dims):
            if kind == "slice":
                scalar_dims.append(ast.BinOp(
                    left=ast.Name(id=f"__i{d}", ctx=ast.Load()), op=ast.Add(),
                    right=ast.Name(id=f"{ref.token}_o{d}", ctx=ast.Load())))
            else:
                scalar_dims.append(ast.Name(id=f"{ref.token}_c{d}", ctx=ast.Load()))
        index: ast.expr = (ast.Tuple(elts=scalar_dims, ctx=ast.Load())
                           if len(scalar_dims) > 1 else scalar_dims[0])
        return ast.Subscript(value=ast.Name(id=ref.token, ctx=ast.Load()),
                             slice=index, ctx=ast.Load())

    def generic_visit(self, node):
        raise _NotAffine(f"unsupported syntax {type(node).__name__}")

    # helpers ---------------------------------------------------------------

    def _bound_src(self, node: ast.expr) -> str:
        """Bound expressions may use integers and scalar symbols only."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.arrays or sub.id not in self.symbols:
                    raise _NotAffine(f"index name {sub.id!r}")
            elif isinstance(sub, ast.BinOp):
                if not isinstance(sub.op, _ALLOWED_BINOPS):
                    raise _NotAffine("index operator")
            elif isinstance(sub, ast.UnaryOp):
                if not isinstance(sub.op, _ALLOWED_UNARY):
                    raise _NotAffine("index unary")
            elif isinstance(sub, ast.Constant):
                if not isinstance(sub.value, int) or isinstance(sub.value, bool):
                    raise _NotAffine("non-integer index")
            elif not isinstance(sub, (ast.expr_context, ast.operator, ast.unaryop)):
                raise _NotAffine(f"index syntax {type(sub).__name__}")
        return ast.unparse(node)


def _plan_tasklet(state, tasklet: Tasklet, sdfg) -> TaskletPlan:
    out_edge = next(
        e for e in state.edges
        if isinstance(e.dst, AccessNode) and e.memlet is not None
        and e.memlet.data == tasklet.output
    )
    out_memlet = out_edge.memlet
    vector_code = _compiled(tasklet.expr_source)
    symbols = set(sdfg.symbols) | set(sdfg.params)
    # map params of the enclosing scope are legal scalar names too
    for entry in state.map_entries:
        symbols.update(entry.params)
    for region in sdfg.walk_regions():
        var = getattr(region, "var", None)
        if var:
            symbols.add(var)
    try:
        tree = ast.parse(tasklet.expr_source, mode="eval")
        rewriter = _Rewriter(sdfg.arrays, symbols)
        scalar_tree = rewriter.visit(tree)
        # every read must be index-compatible with the written subset
        for ref in rewriter.reads:
            if ref.array == out_memlet.data:
                # in-place update: the scalar loop would read partially
                # written data, so keep the whole-expression semantics
                raise _NotAffine(f"{ref.array}: output read in place")
            if len(ref.dims) != len(out_memlet.subset):
                raise _NotAffine(f"{ref.array}: rank mismatch with output")
            for d, (kind, _payload) in enumerate(ref.dims):
                out_dim = out_memlet.subset[d]
                if kind == "slice" and not isinstance(out_dim, Range):
                    raise _NotAffine(f"{ref.array}: slice along scalar output dim {d}")
        scalar_src = ast.unparse(scalar_tree)  # unparse needs no locations
        scalar_code = _compiled(scalar_src)
        mode = MapMode.VECTORIZED
    except _NotAffine:
        scalar_code = None
        mode = MapMode.GENERIC
    return TaskletPlan(tasklet, out_memlet, mode, vector_code, scalar_code,
                       tuple(rewriter.reads) if mode is MapMode.VECTORIZED else ())


def plan_state(state, sdfg) -> StatePlan:
    """Get-or-build the compiled :class:`StatePlan` for ``state``."""
    plan = getattr(state, "_fastpath_plan", None)
    m = active_metrics()
    if plan is None:
        if m is not None:
            m.counter("sdfg.fastpath.plan_cache", outcome="miss").inc()
        plan = StatePlan(tuple(_plan_tasklet(state, t, sdfg) for t in state.tasklets))
        state._fastpath_plan = plan
    elif m is not None:
        m.counter("sdfg.fastpath.plan_cache", outcome="hit").inc()
    return plan


def specialize_maps(sdfg) -> dict[str, int]:
    """Precompile every compute state; returns mode counts (pass report)."""
    counts = {mode.value: 0 for mode in MapMode}
    for state in sdfg.walk_states():
        if not state.tasklets:
            continue
        for plan in plan_state(state, sdfg).plans:
            counts[plan.mode.value] += 1
    return counts
