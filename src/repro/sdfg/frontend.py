"""Python frontend: restricted-subset parsing into SDFGs.

Supports the program shape of the paper's distributed stencil
benchmarks (Listings 5.1/5.2):

- array parameters annotated ``A: float64[N]`` / ``float64[N, M]``,
  scalar parameters annotated ``int32`` / ``int64``,
- ``for t in range(lo, hi):`` time loops,
- NumPy-semantics slice assignments ``B[1:-1] = (A[:-2] + ...) / 3.0``,
- MPI communication: ``comm.Isend(view, peer, tag)``,
  ``comm.Irecv(view, peer, tag)``, ``comm.Waitall()``,
  ``comm.Barrier()``,
- NVSHMEM communication (for hand-written CPU-Free programs):
  ``nvshmem.PutmemSignal(dst_view, src_view, flags[i], t, peer)``,
  ``nvshmem.SignalWait(flags[i], t)``.

``comm``, ``nvshmem`` and ``flags`` are *syntax*, resolved by the
parser — the function is never executed as Python.

Example::

    N = Sym("N")

    @program
    def jacobi(A: float64[N], B: float64[N], TSTEPS: int32,
               nw: int32, ne: int32):
        for t in range(1, TSTEPS):
            comm.Isend(A[1], nw, 2)
            ...
            B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.0

    sdfg = jacobi.to_sdfg()
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.sdfg.graph import LoopRegion, Region, SDFG, State
from repro.sdfg.libnodes.mpi import MPIBarrier, MPIIrecv, MPIIsend, MPIWaitall
from repro.sdfg.libnodes.nvshmem import PutmemSignal, SignalWait
from repro.sdfg.memlet import Memlet, Range, _FULL
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Tasklet
from repro.sdfg.symbols import BinOp, Expr, Sym

__all__ = ["ArrayType", "FrontendError", "float64", "int32", "int64", "program"]


class FrontendError(ValueError):
    """Unsupported construct in a @program function."""


@dataclass(frozen=True)
class ArrayType:
    """Annotation ``float64[N, M]``."""

    dtype: type
    shape: tuple[Expr, ...]


class _DType:
    """Annotation factory: ``float64[N]`` is an array, bare ``int32``
    is a scalar parameter."""

    def __init__(self, np_dtype: type) -> None:
        self.np_dtype = np_dtype

    def __getitem__(self, shape: Any) -> ArrayType:
        if not isinstance(shape, tuple):
            shape = (shape,)
        return ArrayType(self.np_dtype, shape)


float64 = _DType(np.float64)
int64 = _DType(np.int64)
int32 = _DType(np.int32)


def program(func):
    """Decorator: mark a restricted-Python function as a DaCe-style
    program; call ``.to_sdfg()`` to build the IR."""
    return PythonProgram(func)


class PythonProgram:
    """Deferred parser for a @program function."""

    def __init__(self, func) -> None:
        self.func = func
        self.__name__ = func.__name__
        self.__doc__ = func.__doc__

    def to_sdfg(self, name: str | None = None) -> SDFG:
        source = textwrap.dedent(inspect.getsource(self.func))
        tree = ast.parse(source)
        fndef = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
        sdfg = SDFG(name or self.func.__name__)
        builder = _Builder(sdfg, self.func)
        builder.declare_parameters(fndef)
        builder.build_region(fndef.body, sdfg.body, loop_vars=set())
        return sdfg


class _Builder:
    def __init__(self, sdfg: SDFG, func) -> None:
        self.sdfg = sdfg
        self.env = dict(func.__globals__)
        if func.__closure__:
            for name, cell in zip(func.__code__.co_freevars, func.__closure__):
                self.env[name] = cell.cell_contents
        # `from __future__ import annotations` stringifies annotations;
        # evaluate them against the function's environment
        self.annotations = {
            name: (eval(ann, self.env) if isinstance(ann, str) else ann)  # noqa: S307
            for name, ann in func.__annotations__.items()
        }
        self._state_counter = 0

    # -- declarations -----------------------------------------------------------

    def declare_parameters(self, fndef: ast.FunctionDef) -> None:
        for arg in fndef.args.args:
            ann = self.annotations.get(arg.arg)
            if isinstance(ann, ArrayType):
                self.sdfg.add_array(arg.arg, ann.shape, ann.dtype)
                for dim in ann.shape:
                    self._register_shape_symbols(dim)
            elif isinstance(ann, _DType):
                self.sdfg.add_param(arg.arg)
            else:
                raise FrontendError(
                    f"parameter {arg.arg!r} needs a float64[...]/int32 annotation"
                )

    def _register_shape_symbols(self, expr: Expr) -> None:
        if isinstance(expr, Sym):
            self.sdfg.add_symbol(expr.name)
        elif isinstance(expr, BinOp):
            self._register_shape_symbols(expr.lhs)
            self._register_shape_symbols(expr.rhs)

    # -- regions ---------------------------------------------------------------------

    def build_region(self, stmts: list[ast.stmt], region: Region, loop_vars: set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.For):
                region.add(self._build_loop(stmt, loop_vars))
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                region.add(self._build_call_state(stmt.value, loop_vars))
            elif isinstance(stmt, ast.Assign):
                region.add(self._build_compute_state(stmt, loop_vars))
            elif isinstance(stmt, ast.AugAssign):
                region.add(self._build_compute_state(
                    self._desugar_augassign(stmt), loop_vars))
            elif isinstance(stmt, ast.Pass):
                continue
            else:
                raise FrontendError(
                    f"unsupported statement at line {stmt.lineno}: {ast.dump(stmt)[:80]}"
                )

    def _build_loop(self, node: ast.For, loop_vars: set[str]) -> LoopRegion:
        if not isinstance(node.target, ast.Name):
            raise FrontendError("loop target must be a simple name")
        call = node.iter
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "range"):
            raise FrontendError("only 'for x in range(lo, hi)' loops supported")
        if len(call.args) == 1:
            lo: Expr = 0
            hi = self._to_expr(call.args[0], loop_vars)
        elif len(call.args) == 2:
            lo = self._to_expr(call.args[0], loop_vars)
            hi = self._to_expr(call.args[1], loop_vars)
        else:
            raise FrontendError("range() with step is not supported")
        loop = LoopRegion(node.target.id, lo, hi)
        self.build_region(node.body, loop, loop_vars | {node.target.id})
        return loop

    # -- compute states -----------------------------------------------------------------

    @staticmethod
    def _desugar_augassign(node: ast.AugAssign) -> ast.Assign:
        """Rewrite ``A[s] op= expr`` as ``A[s] = A[s] op (expr)``."""
        if not isinstance(node.target, ast.Subscript):
            raise FrontendError(
                f"line {node.lineno}: augmented assignment target must be a subscript"
            )
        # every new node takes the statement's location, as
        # ast.fix_missing_locations would give it; that helper recurses
        # through a self-referencing closure, a cycle per call
        read = ast.copy_location(
            ast.Subscript(value=node.target.value, slice=node.target.slice,
                          ctx=ast.Load()), node)
        rhs = ast.copy_location(
            ast.BinOp(left=read, op=node.op, right=node.value), node)
        return ast.copy_location(ast.Assign(targets=[node.target], value=rhs), node)

    def _build_compute_state(self, node: ast.Assign, loop_vars: set[str]) -> State:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Subscript):
            raise FrontendError(
                f"line {node.lineno}: only single 'array[subset] = expr' assignments"
            )
        target = node.targets[0]
        if not isinstance(target.value, ast.Name):
            raise FrontendError("assignment target must be a named array")
        out_name = target.value.id
        self._check_array(out_name, node.lineno)
        out_memlet = Memlet(out_name, self._subset_dims(target, loop_vars))

        rhs_source = ast.unparse(node.value)
        read_memlets = self._collect_reads(node.value, loop_vars)

        state = self._new_state(f"compute_{out_name}")
        # map over the written subset
        ndim = len(out_memlet.subset)
        params = [f"__i{d}" for d in range(ndim)]
        shape = self.sdfg.arrays[out_name].shape
        ranges = []
        for d, dim in enumerate(out_memlet.subset):
            if isinstance(dim, Range):
                stop = shape[d] if dim.stop is _FULL else dim.stop
                ranges.append((dim.start, stop))
            else:
                ranges.append((dim, dim))
        entry = state.add_node(MapEntry(f"map_{out_name}", params, ranges))
        tasklet = state.add_node(
            Tasklet(f"t_{out_name}", rhs_source,
                    inputs=[m.data for m in read_memlets], output=out_name)
        )
        tasklet.is_copy = isinstance(node.value, (ast.Subscript, ast.Name))
        exit_ = state.add_node(MapExit(entry))
        out_access = state.add_node(AccessNode(out_name))
        for memlet in read_memlets:
            access = state.add_node(AccessNode(memlet.data))
            state.add_edge(access, entry, memlet)
        state.add_edge(entry, tasklet)
        state.add_edge(tasklet, exit_)
        state.add_edge(exit_, out_access, out_memlet)
        return state

    def _collect_reads(self, rhs: ast.expr, loop_vars: set[str]) -> list[Memlet]:
        collector = _ReadCollector(self, loop_vars)
        collector.visit(rhs)
        return collector.memlets

    # -- library-call states --------------------------------------------------------------

    def _build_call_state(self, call: ast.Call, loop_vars: set[str]) -> State:
        if not (isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)):
            raise FrontendError(f"line {call.lineno}: unsupported call {ast.unparse(call)}")
        namespace = call.func.value.id
        op = call.func.attr
        if namespace == "comm":
            return self._build_mpi_state(op, call, loop_vars)
        if namespace == "nvshmem":
            return self._build_nvshmem_state(op, call, loop_vars)
        raise FrontendError(f"line {call.lineno}: unknown namespace {namespace!r}")

    def _build_mpi_state(self, op: str, call: ast.Call, loop_vars: set[str]) -> State:
        state = self._new_state(f"mpi_{op.lower()}")
        if op in ("Isend", "Irecv"):
            if len(call.args) != 3:
                raise FrontendError(f"comm.{op} takes (view, peer, tag)")
            memlet = self._view_to_memlet(call.args[0], loop_vars)
            peer = self._peer_arg(call.args[1])
            tag = self._int_arg(call.args[2])
            if op == "Isend":
                node = state.add_node(MPIIsend(memlet, peer, tag))
                access = state.add_node(AccessNode(memlet.data))
                state.add_edge(access, node, memlet)
            else:
                node = state.add_node(MPIIrecv(memlet, peer, tag))
                access = state.add_node(AccessNode(memlet.data))
                state.add_edge(node, access, memlet)
        elif op == "Waitall":
            state.add_node(MPIWaitall())
        elif op == "Barrier":
            state.add_node(MPIBarrier())
        else:
            raise FrontendError(f"unsupported MPI operation comm.{op}")
        return state

    def _build_nvshmem_state(self, op: str, call: ast.Call, loop_vars: set[str]) -> State:
        state = self._new_state(f"nvshmem_{op.lower()}")
        if op == "PutmemSignal":
            if len(call.args) != 5:
                raise FrontendError(
                    "nvshmem.PutmemSignal takes (dst_view, src_view, flag, value, pe)"
                )
            dst = self._view_to_memlet(call.args[0], loop_vars)
            src = self._view_to_memlet(call.args[1], loop_vars)
            flag_index = self._flag_index(call.args[2])
            value = self._to_expr(call.args[3], loop_vars)
            pe = self._peer_arg(call.args[4])
            node = state.add_node(PutmemSignal(dst, src, flag_index, value, pe))
            access = state.add_node(AccessNode(src.data))
            state.add_edge(access, node, src)
        elif op == "SignalWait":
            if len(call.args) != 2:
                raise FrontendError("nvshmem.SignalWait takes (flag, value)")
            flag_index = self._flag_index(call.args[0])
            value = self._to_expr(call.args[1], loop_vars)
            state.add_node(SignalWait(flag_index, value))
        else:
            raise FrontendError(f"unsupported NVSHMEM operation nvshmem.{op}")
        return state

    # -- argument helpers ---------------------------------------------------------------------

    def _view_to_memlet(self, node: ast.expr, loop_vars: set[str]) -> Memlet:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            self._check_array(node.value.id, node.lineno)
            return Memlet(node.value.id, self._subset_dims(node, loop_vars))
        if isinstance(node, ast.Name):
            self._check_array(node.id, node.lineno)
            desc = self.sdfg.arrays[node.id]
            return Memlet(node.id, tuple(Range(0, _FULL) for _ in desc.shape))
        raise FrontendError(f"line {node.lineno}: expected an array view")

    def _subset_dims(self, node: ast.Subscript, loop_vars: set[str]) -> tuple:
        index = node.slice
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        dims = []
        for part in parts:
            if isinstance(part, ast.Slice):
                if part.step is not None:
                    raise FrontendError("strided slices (step != 1) not supported")
                lo = 0 if part.lower is None else self._to_expr(part.lower, loop_vars)
                hi = _FULL if part.upper is None else self._to_expr(part.upper, loop_vars)
                dims.append(Range(lo, hi))
            else:
                dims.append(self._to_expr(part, loop_vars))
        return tuple(dims)

    def _peer_arg(self, node: ast.expr) -> str | int:
        if isinstance(node, ast.Name):
            if node.id not in self.sdfg.params:
                raise FrontendError(f"peer {node.id!r} must be a scalar parameter")
            return node.id
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        raise FrontendError(f"line {node.lineno}: peer must be a parameter or int")

    def _int_arg(self, node: ast.expr) -> int:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        raise FrontendError(f"line {node.lineno}: expected an integer literal")

    def _flag_index(self, node: ast.expr) -> int:
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "flags"):
            return self._int_arg(node.slice)
        raise FrontendError(f"line {node.lineno}: flag must be written as flags[<int>]")

    def _to_expr(self, node: ast.expr, loop_vars: set[str]) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise FrontendError(f"line {node.lineno}: indices must be integers")
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._to_expr(node.operand, loop_vars)
            if isinstance(inner, int):
                return -inner
            return BinOp("-", 0, inner)
        if isinstance(node, ast.Name):
            if node.id in loop_vars or node.id in self.sdfg.params:
                return Sym(node.id)
            value = self.env.get(node.id)
            if isinstance(value, Sym):
                self.sdfg.add_symbol(value.name)
                return value
            if isinstance(value, int):
                return value
            raise FrontendError(f"line {node.lineno}: unknown name {node.id!r} in index")
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//"}
            op = ops.get(type(node.op))
            if op is None:
                raise FrontendError(f"line {node.lineno}: unsupported index operator")
            lhs = self._to_expr(node.left, loop_vars)
            rhs = self._to_expr(node.right, loop_vars)
            if isinstance(lhs, int) and isinstance(rhs, int):
                return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                        "//": lhs // rhs if rhs else 0}[op]
            return BinOp(op, lhs, rhs)
        raise FrontendError(f"line {node.lineno}: unsupported index expression")

    # -- misc -------------------------------------------------------------------------------------

    def _check_array(self, name: str, lineno: int) -> None:
        if name not in self.sdfg.arrays:
            raise FrontendError(f"line {lineno}: unknown array {name!r}")

    def _new_state(self, label: str) -> State:
        state = State(f"s{self._state_counter}_{label}")
        self._state_counter += 1
        return state


class _ReadCollector(ast.NodeVisitor):
    """The array reads of a right-hand side, as memlets in visit order.

    A module-level class: a class built per call is a reference cycle
    (as is every class), and its methods' closure would tie the
    builder, and so the whole SDFG, into it until a collection.
    """

    def __init__(self, builder: _Builder, loop_vars: set[str]) -> None:
        self.builder = builder
        self.loop_vars = loop_vars
        self.memlets: list[Memlet] = []
        self.seen: set[str] = set()

    def visit_Subscript(self, node: ast.Subscript) -> None:
        builder = self.builder
        if isinstance(node.value, ast.Name) and node.value.id in builder.sdfg.arrays:
            self.memlets.append(
                Memlet(node.value.id, builder._subset_dims(node, self.loop_vars))
            )
            self.seen.add(node.value.id)
        else:
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        arrays = self.builder.sdfg.arrays
        if node.id in arrays and node.id not in self.seen:
            self.memlets.append(
                Memlet(node.id, tuple(Range(0, _FULL) for _ in arrays[node.id].shape))
            )
            self.seen.add(node.id)
