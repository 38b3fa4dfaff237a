"""AutoOverlap: chunked compute/communication tiling as a transformation.

The hand-written CPU-Free stencils (paper §4.1) split each rank's
domain into eagerly-communicated *boundary* rows and bulk *interior*
rows so the halo puts overlap interior compute.  This pass derives the
same schedule mechanically from the lowered SDFG — the compiler-support
claim of the paper, closed the way Syncopate's chunk-centric tiling
closes it:

1. find a compute map inside a time loop whose written array feeds
   :class:`PutmemSignal` states *later in the same loop body*, with the
   put's leading-dimension index equal to the map's first or last
   written row (a halo boundary);
2. rewrite the map into ``K + 2`` row chunks — the two boundary chunks
   first, each immediately followed by its (relocated) put state, then
   ``K`` interior chunks covering the remaining rows;
3. tag every emitted state with a shared ``overlap_group`` so the
   persistent-kernel barrier relaxation and the communication lint both
   know the chunks write *disjoint* row blocks (no grid-wide barrier
   between them, no src-reuse hazard against the eager puts).

Only affine maps are tiled ("tileable"): the rewrite must rebuild each
tasklet's expression with shifted slice bounds, so the expression may
hold only arithmetic over symbols, numeric literals and array
subscripts with affine slice bounds (:class:`_ChunkRewriter` is that
whitelist).  Anything else — calls, whole-array reads, partial
indexing — raises :class:`OverlapTransformError` (``non-tileable``)
instead of silently passing, and SDFGs with communication-lint findings
are refused outright: only race-free programs are rewritten.

Symbolic bound comparisons use probe evaluation: both expressions are
evaluated under several fixed valuations of their symbols.  The bound
language is affine (``+ - * //`` over symbols and literals), where
agreement on a handful of independent valuations implies equality for
every practical program; no computer-algebra system is needed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.sdfg.graph import LoopRegion, SDFG, Schedule, State
from repro.sdfg.libnodes.nvshmem import PutmemSignal
from repro.sdfg.lint import lint_communication
from repro.sdfg.memlet import Memlet, Range, _FULL
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Tasklet
from repro.sdfg.symbols import BinOp, Expr, Sym, evaluate_expr, expr_to_str
from repro.sdfg.transforms.persistent import _partition_comm_states, _transform_loop

__all__ = ["OverlapTransformError", "auto_overlap"]


class OverlapTransformError(ValueError):
    """The SDFG cannot be auto-overlapped (named refusal, never silent)."""


# ---------------------------- symbolic helpers ---------------------------------


def _fold(op: str, lhs: Expr, rhs: Expr) -> Expr:
    """Build ``lhs op rhs`` with constant folding and identity elision."""
    if isinstance(lhs, int) and isinstance(rhs, int):
        return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                "//": lhs // rhs if rhs else 0}[op]
    if op == "+":
        if lhs == 0:
            return rhs
        if rhs == 0:
            return lhs
    elif op == "-":
        if rhs == 0:
            return lhs
    elif op == "*":
        if lhs == 1:
            return rhs
        if rhs == 1:
            return lhs
        if lhs == 0 or rhs == 0:
            return 0
    return BinOp(op, lhs, rhs)


def _expr_names(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, Sym):
        out.add(expr.name)
    elif isinstance(expr, BinOp):
        _expr_names(expr.lhs, out)
        _expr_names(expr.rhs, out)


#: three independent valuations; affine bounds agreeing on all of them
#: are equal for every practical program (see module docstring)
_PROBE_SALTS = (0, 1, 2)


def _probe_bindings(names: list[str], salt: int) -> dict[str, int]:
    return {name: 1009 + 97 * i + 7919 * salt for i, name in enumerate(names)}


def _probe_eq(a: Expr, b: Expr) -> bool:
    """Equality of two affine bound expressions via probe evaluation."""
    names: set[str] = set()
    _expr_names(a, names)
    _expr_names(b, names)
    ordered = sorted(names)
    return all(
        evaluate_expr(a, _probe_bindings(ordered, salt))
        == evaluate_expr(b, _probe_bindings(ordered, salt))
        for salt in _PROBE_SALTS
    )


def _probe_min(expr: Expr) -> int:
    """Smallest probe valuation of ``expr`` (sanity bound checks)."""
    names: set[str] = set()
    _expr_names(expr, names)
    ordered = sorted(names)
    return min(
        evaluate_expr(expr, _probe_bindings(ordered, salt)) for salt in _PROBE_SALTS
    )


def _norm_bound(bound: Expr, size: Expr) -> Expr:
    """Resolve a possibly-negative literal bound against the axis size
    (Python slice semantics, as :meth:`Memlet.resolve` applies them)."""
    if isinstance(bound, int) and bound < 0:
        return _fold("+", size, bound)
    return bound


def _expr_ast(expr: Expr) -> ast.expr:
    """Render a symbolic expression back into (bound-legal) AST."""
    return ast.parse(expr_to_str(expr), mode="eval").body


class _NotTileable(Exception):
    """Internal: the expression leaves the affine/tileable subset."""


def _ast_to_expr(node: ast.expr, symbols: set[str]) -> Expr:
    """Frontend-equivalent index language: ints, scalar symbols, + - * //."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise _NotTileable(f"non-integer bound {node.value!r}")
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _ast_to_expr(node.operand, symbols)
        return -inner if isinstance(inner, int) else _fold("-", 0, inner)
    if isinstance(node, ast.Name):
        if node.id not in symbols:
            raise _NotTileable(f"unknown name {node.id!r} in slice bound")
        return Sym(node.id)
    if isinstance(node, ast.BinOp):
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//"}
        op = ops.get(type(node.op))
        if op is None:
            raise _NotTileable(
                f"unsupported bound operator {type(node.op).__name__}")
        return _fold(op, _ast_to_expr(node.left, symbols),
                     _ast_to_expr(node.right, symbols))
    raise _NotTileable(f"unsupported bound syntax {type(node).__name__}")


# ---------------------------- expression chunking ------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
                   ast.Mod, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


class _ChunkRewriter(ast.NodeTransformer):
    """Shift the leading-dimension slice of every array subscript from
    the original written rows ``[a, b)`` to a chunk ``[lo, hi)``.

    A subscript reading ``X[s:e, ...]`` with offset ``d = s - a``
    becomes ``X[lo+d : hi+d, ...]``; fixed-row reads (``X[5, ...]``)
    are chunk-invariant and pass through.  Collects the chunk's read
    memlets as a side effect.  Anything outside the affine subset
    (arithmetic over symbols, numeric literals and full-rank array
    subscripts) raises :class:`_NotTileable`.
    """

    def __init__(self, sdfg: SDFG, symbols: set[str], a: Expr, b: Expr,
                 lo: Expr, hi: Expr) -> None:
        self.sdfg = sdfg
        self.symbols = symbols
        self.a = a
        self.b = b
        self.lo = lo
        self.hi = hi
        self.reads: list[Memlet] = []

    # structural whitelist ------------------------------------------------

    def visit_Expression(self, node):  # noqa: N802
        return ast.Expression(body=self.visit(node.body))

    def visit_BinOp(self, node):  # noqa: N802
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise _NotTileable(f"operator {type(node.op).__name__}")
        return ast.BinOp(left=self.visit(node.left), op=node.op,
                         right=self.visit(node.right))

    def visit_UnaryOp(self, node):  # noqa: N802
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise _NotTileable(f"unary {type(node.op).__name__}")
        return ast.UnaryOp(op=node.op, operand=self.visit(node.operand))

    def visit_Constant(self, node):  # noqa: N802
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise _NotTileable(f"constant {node.value!r}")
        return node

    def visit_Name(self, node):  # noqa: N802
        if node.id in self.sdfg.arrays:
            raise _NotTileable(f"whole-array reference {node.id!r}")
        if node.id not in self.symbols:
            raise _NotTileable(f"unknown name {node.id!r}")
        return node

    def generic_visit(self, node):
        raise _NotTileable(f"unsupported syntax {type(node).__name__}")

    # the actual rewrite --------------------------------------------------

    def visit_Subscript(self, node):  # noqa: N802
        if not (isinstance(node.value, ast.Name)
                and node.value.id in self.sdfg.arrays):
            raise _NotTileable("subscript of a non-array")
        array = node.value.id
        desc = self.sdfg.arrays[array]
        parts = (list(node.slice.elts) if isinstance(node.slice, ast.Tuple)
                 else [node.slice])
        if len(parts) != desc.ndim:
            raise _NotTileable(
                f"{array}: partial index ({len(parts)} of {desc.ndim} dims)")
        size0 = desc.shape[0]
        dims: list = []
        lead = parts[0]
        if isinstance(lead, ast.Slice):
            if lead.step is not None:
                raise _NotTileable("strided slice")
            s_lo = 0 if lead.lower is None else _ast_to_expr(lead.lower, self.symbols)
            s_hi = (size0 if lead.upper is None
                    else _ast_to_expr(lead.upper, self.symbols))
            s_lo = _norm_bound(s_lo, size0)
            s_hi = _norm_bound(s_hi, size0)
            # the read extent must match the written extent, or the
            # per-chunk shift is ill-defined
            if not _probe_eq(_fold("-", s_hi, s_lo), _fold("-", self.b, self.a)):
                raise _NotTileable(
                    f"{array}: leading slice extent differs from the written rows")
            delta = _fold("-", s_lo, self.a)
            new_lo = _fold("+", self.lo, delta)
            new_hi = _fold("+", self.hi, delta)
            parts[0] = ast.Slice(lower=_expr_ast(new_lo), upper=_expr_ast(new_hi))
            dims.append(Range(new_lo, new_hi))
        else:
            # fixed row: chunk-invariant, keep verbatim
            dims.append(_ast_to_expr(lead, self.symbols))
        for part in parts[1:]:
            dims.append(self._trailing_dim(part))
        memlet = Memlet(array, tuple(dims))
        if memlet not in self.reads:
            self.reads.append(memlet)
        index: ast.expr = (ast.Tuple(elts=parts, ctx=ast.Load())
                           if len(parts) > 1 else parts[0])
        return ast.Subscript(value=ast.Name(id=array, ctx=ast.Load()),
                             slice=index, ctx=ast.Load())

    def _trailing_dim(self, part: ast.expr):
        if isinstance(part, ast.Slice):
            if part.step is not None:
                raise _NotTileable("strided slice")
            lo = 0 if part.lower is None else _ast_to_expr(part.lower, self.symbols)
            hi = _FULL if part.upper is None else _ast_to_expr(part.upper, self.symbols)
            return Range(lo, hi)
        return _ast_to_expr(part, self.symbols)


# ---------------------------- candidate analysis -------------------------------


@dataclass
class _TaskletInfo:
    tasklet: Tasklet
    out_memlet: Memlet
    tree: ast.expr  #: parsed expression source


@dataclass
class _Candidate:
    """One compute map with relocatable boundary puts after it."""

    state: State
    index: int  #: position in ``loop.elements``
    entry: MapEntry
    tasklets: list[_TaskletInfo]
    a: Expr  #: normalized first written row
    b: Expr  #: normalized one-past-last written row
    top_puts: list[State]
    bottom_puts: list[State]


def _scalar_symbols(sdfg: SDFG) -> set[str]:
    symbols = set(sdfg.symbols) | set(sdfg.params)
    for region in sdfg.walk_regions():
        var = getattr(region, "var", None)
        if var:
            symbols.add(var)
    return symbols


def _out_memlet(state: State, tasklet: Tasklet) -> Memlet:
    edge = next(
        e for e in state.edges
        if isinstance(e.dst, AccessNode) and e.memlet is not None
        and e.memlet.data == tasklet.output
    )
    return edge.memlet


def _relocatable_put_state(state: State) -> PutmemSignal | None:
    """A state that can move as a unit: exactly one put, nothing else."""
    libs = state.library_nodes
    if state.tasklets or len(libs) != 1 or not isinstance(libs[0], PutmemSignal):
        return None
    return libs[0]


def _find_candidate(sdfg: SDFG, loop: LoopRegion, index: int,
                    symbols: set[str]) -> _Candidate | None:
    """Classify ``loop.elements[index]``; raises on a non-tileable
    candidate, returns None when the state is not a candidate at all."""
    state = loop.elements[index]
    written = {t.output for t in state.tasklets}

    # boundary-put scan first: a map with no downstream halo puts is
    # simply not a candidate (no communication to overlap)
    try:
        anchor = _out_memlet(state, state.tasklets[0])
    except StopIteration:
        return None  # dangling tasklet without an output edge
    lead = anchor.subset[0]
    if not isinstance(lead, Range):
        return None  # single-row write: nothing to tile
    size0 = sdfg.arrays[anchor.data].shape[0]
    a = _norm_bound(lead.start, size0)
    b = size0 if lead.stop is _FULL else _norm_bound(lead.stop, size0)

    top_puts: list[State] = []
    bottom_puts: list[State] = []
    for later in loop.elements[index + 1:]:
        if not isinstance(later, State):
            continue
        put = _relocatable_put_state(later)
        if put is None or put.src.data not in written:
            continue
        lead_src = put.src.subset[0]
        if isinstance(lead_src, Range):
            continue  # spans rows across chunks; left in place
        src_size0 = sdfg.arrays[put.src.data].shape[0]
        row = _norm_bound(lead_src, src_size0)
        if _probe_eq(row, a):
            top_puts.append(later)
        elif _probe_eq(row, _fold("-", b, 1)):
            bottom_puts.append(later)
    if not top_puts and not bottom_puts:
        return None

    # candidate confirmed: now every tasklet must be tileable
    if _probe_min(_fold("-", b, a)) < 3:
        raise OverlapTransformError(
            f"map in state {state.name!r} is non-tileable: fewer than 3 "
            f"written rows (no interior between the boundary chunks)")
    infos: list[_TaskletInfo] = []
    for tasklet in state.tasklets:
        out = _out_memlet(state, tasklet)
        t_lead = out.subset[0]
        if not isinstance(t_lead, Range):
            raise OverlapTransformError(
                f"map in state {state.name!r} is non-tileable: tasklet "
                f"{tasklet.label!r} writes a single row")
        t_size0 = sdfg.arrays[out.data].shape[0]
        t_a = _norm_bound(t_lead.start, t_size0)
        t_b = t_size0 if t_lead.stop is _FULL else _norm_bound(t_lead.stop, t_size0)
        if not (_probe_eq(t_a, a) and _probe_eq(t_b, b)):
            raise OverlapTransformError(
                f"map in state {state.name!r} is non-tileable: tasklet "
                f"{tasklet.label!r} writes rows "
                f"[{expr_to_str(t_a)}, {expr_to_str(t_b)}) but the map "
                f"covers [{expr_to_str(a)}, {expr_to_str(b)})")
        try:
            tree = ast.parse(tasklet.expr_source, mode="eval")
            # trial rewrite over the full extent: surfaces every
            # unsupported construct before any mutation happens
            _ChunkRewriter(sdfg, symbols, a, b, a, b).visit(tree)
        except _NotTileable as exc:
            raise OverlapTransformError(
                f"map in state {state.name!r} is non-tileable: {exc} "
                f"(only affine maps can be auto-overlapped)") from None
        except SyntaxError as exc:  # pragma: no cover - corrupt IR
            raise OverlapTransformError(
                f"map in state {state.name!r} is non-tileable: {exc}") from None
        infos.append(_TaskletInfo(tasklet, out, ast.parse(tasklet.expr_source,
                                                          mode="eval")))
    return _Candidate(state, index, state.map_entries[0], infos, a, b,
                      top_puts, bottom_puts)


# ---------------------------- chunk construction -------------------------------


def _build_chunk_state(sdfg: SDFG, cand: _Candidate, symbols: set[str],
                       lo: Expr, hi: Expr, suffix: str, group: str) -> State:
    src_state = cand.state
    state = State(f"{src_state.name}_{suffix}", src_state.schedule)
    state.overlap_group = group
    entry = state.add_node(MapEntry(
        f"{cand.entry.label}_{suffix}", list(cand.entry.params),
        [(lo, hi), *cand.entry.ranges[1:]]))
    exit_ = state.add_node(MapExit(entry))
    seen_reads: dict[tuple, AccessNode] = {}
    for info in cand.tasklets:
        rewriter = _ChunkRewriter(sdfg, symbols, cand.a, cand.b, lo, hi)
        tree = rewriter.visit(ast.parse(info.tasklet.expr_source, mode="eval"))
        # unparse reads no locations, so the rewritten nodes need none
        source = ast.unparse(tree)
        tasklet = state.add_node(Tasklet(
            f"{info.tasklet.label}_{suffix}", source,
            inputs=[m.data for m in rewriter.reads], output=info.tasklet.output))
        tasklet.is_copy = getattr(info.tasklet, "is_copy", False)
        for memlet in rewriter.reads:
            key = (memlet.data, memlet.subset)
            access = seen_reads.get(key)
            if access is None:
                access = seen_reads[key] = state.add_node(AccessNode(memlet.data))
                state.add_edge(access, entry, memlet)
        state.add_edge(entry, tasklet)
        state.add_edge(tasklet, exit_)
        out_access = state.add_node(AccessNode(info.out_memlet.data))
        out_memlet = Memlet(info.out_memlet.data,
                            (Range(lo, hi), *info.out_memlet.subset[1:]))
        state.add_edge(exit_, out_access, out_memlet)
    return state


def _apply(sdfg: SDFG, loop: LoopRegion, cand: _Candidate,
           symbols: set[str], chunks: int) -> int:
    """Splice the chunked schedule into the loop; returns the number of
    elements now occupying the original state's position."""
    group = f"overlap:{cand.state.name}"
    a, b = cand.a, cand.b
    top = _build_chunk_state(sdfg, cand, symbols, a, _fold("+", a, 1),
                             "ov_top", group)
    bottom = _build_chunk_state(sdfg, cand, symbols, _fold("-", b, 1), b,
                                "ov_bot", group)
    interior_lo = _fold("+", a, 1)
    length = _fold("-", _fold("-", b, a), 2)
    interiors = []
    for j in range(chunks):
        c_lo = _fold("+", interior_lo, _fold("//", _fold("*", j, length), chunks))
        c_hi = _fold("+", interior_lo,
                     _fold("//", _fold("*", j + 1, length), chunks))
        interiors.append(_build_chunk_state(sdfg, cand, symbols, c_lo, c_hi,
                                            f"ov_int{j}", group))
    for put_state in (*cand.top_puts, *cand.bottom_puts):
        put_state.overlap_group = group
        loop.elements.remove(put_state)
    sequence = [top, *cand.top_puts, bottom, *cand.bottom_puts, *interiors]
    index = loop.elements.index(cand.state)
    loop.elements[index:index + 1] = sequence
    return len(sequence)


# ---------------------------- entry point --------------------------------------


def _model_chunks(cost) -> int:
    """Interior chunk count from the calibrated cost model: as many
    chunks as fit before per-chunk scheduling overhead (device loop
    turn + block sync) adds up to one grid sync — the barrier the
    relaxation removed — capped at 8 (diminishing returns past that on
    every calibrated part)."""
    per_chunk = cost.device_loop_overhead_us + cost.block_sync_us
    if per_chunk <= 0.0:
        return 8
    return max(2, min(8, int(cost.grid_sync_us / per_chunk)))


def auto_overlap(sdfg: SDFG, *, chunks: int | None = None, cost=None) -> int:
    """Rewrite halo-communicating compute maps into overlapped chunks.

    In-place; returns the number of maps rewritten.  ``chunks`` is the
    interior chunk count ``K`` (the two boundary chunks are always
    emitted); when omitted it is chosen by the calibrated cost model.
    Raises :class:`OverlapTransformError` when the SDFG has no loop, has
    communication-lint findings (only race-free SDFGs are tiled), has no
    overlappable map, or has a candidate map that is not tileable.
    """
    if cost is None:
        from repro.hw.calibration import DEFAULT_COST_MODEL
        cost = DEFAULT_COST_MODEL
    k = chunks if chunks is not None else _model_chunks(cost)
    if k < 1:
        raise OverlapTransformError(f"chunk count must be >= 1, got {k}")
    loops = sdfg.loop_regions()
    if not loops:
        raise OverlapTransformError(
            "no loop region: auto-overlap tiles compute maps of a time loop")
    findings = lint_communication(sdfg)
    if findings:
        raise OverlapTransformError(
            "communication lint findings block auto-overlap (only race-free "
            "SDFGs are tiled): " + findings[0].summary())
    symbols = _scalar_symbols(sdfg)
    rewritten = 0
    for loop in loops:
        loop_rewrites = 0
        i = 0
        while i < len(loop.elements):
            el = loop.elements[i]
            if isinstance(el, State) and el.tasklets and el.map_entries:
                cand = _find_candidate(sdfg, loop, i, symbols)
                if cand is not None:
                    i += _apply(sdfg, loop, cand, symbols, k)
                    loop_rewrites += 1
                    continue
            i += 1
        if loop_rewrites and loop.schedule is Schedule.GPU_PERSISTENT:
            # recompute the relaxed barrier schedule over the new state
            # sequence (the overlap_group tag elides barriers between
            # chunks) and refresh the TB-group partition if specialized
            _transform_loop(loop, relax_barriers=True)
            if getattr(loop, "comm_specialized", False):
                _partition_comm_states(loop)
        rewritten += loop_rewrites
    if rewritten == 0:
        raise OverlapTransformError(
            "no overlappable compute map: need a tileable map whose boundary "
            "rows feed later put states in the same loop body")
    return rewritten
