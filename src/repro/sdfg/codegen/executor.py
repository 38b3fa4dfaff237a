"""Execute a (transformed) SDFG on the multi-GPU simulator.

The executor is the "runtime" half of code generation.  Like the
emitted CUDA/C++, it decides each shape-driven lowering once: a rank
*binds* a state on first reaching it (peers, byte counts, index tuples,
expansions), and one walker runs the bound operations.  A compute
state's tasklets run the way the generated kernel covers its map: each
is one NumPy expression over the whole output subset, compiled once per
distinct source.

Discrete mode (states scheduled ``GPU_DEVICE``) reproduces the DaCe
baseline of Fig. 5.1: per iteration, one kernel launch per compute
state; each MPI library node is preceded by a ``cudaStreamSynchronize``
and a device-to-device staging copy, then the host MPI call (with an
``MPI_Type_vector`` penalty for strided views); ``Waitall`` blocks the
host on all pending requests.

Persistent mode (loop scheduled ``GPU_PERSISTENT``) reproduces the
generated CPU-Free code of §5.3.2: a single cooperative kernel per
rank whose device loop runs the states back-to-back, communication
"scheduled in a single thread followed by a grid sync" — NVSHMEM ops
issue at *thread* scope (the generated code cannot use the
block-cooperative calls, §5.4), with barriers only on the relaxed
subgraph edges computed by the transform.

Arguments bind by reference, as a DaCe SDFG call binds them: each
ndarray a rank passes *is* that rank's array, and the run writes its
results into it.  A symmetric (``GPU_NVSHMEM``) array's collective
``nvshmem_malloc`` adopts the ranks' arguments as its PE buffers.  Only
arrays no rank passes (outputs, transients) are allocated, zero-filled.
``run`` raises ``ValueError``, naming the rank and the array, on an
argument it cannot bind in place: one that is not a writeable ndarray
of the declared shape and dtype, two that may share memory (in one rank
or across ranks), or a symmetric array passed on some ranks only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable

import numpy as np
from numpy.lib.array_utils import byte_bounds

from repro.core import LocalSpinFlag, TBGroup, launch_persistent
from repro.nvshmem import NVSHMEMRuntime, WaitCond
from repro.nvshmem.device import Scope
from repro.obs.metrics import active_metrics
from repro.runtime import Communicator, MultiGPUContext, VectorType
from repro.runtime.kernel import KernelSpec
from repro.sdfg.graph import LoopRegion, SDFG, Schedule, State
from repro.sdfg.libnodes.mpi import MPI_PROC_NULL, MPIBarrier, MPIIrecv, MPIIsend, MPIWaitall
from repro.sdfg.libnodes.nvshmem import PutmemSignal, SignalWait
from repro.sdfg.memlet import AccessKind
from repro.sdfg.nodes import AccessNode
from repro.sdfg.symbols import evaluate_expr, free_symbols
from repro.sdfg.transforms.mpi_to_nvshmem import FLAGS_ARRAY
from repro.hw.memory import Storage
from repro.sim import Tracer

__all__ = ["ExecutionReport", "SDFGExecutor"]


@dataclass
class ExecutionReport:
    """Timing and (optionally) data results of one SDFG execution."""

    total_time_us: float
    iterations: int
    tracer: Tracer
    arrays: list[dict[str, np.ndarray]] | None

    @property
    def comm_time_us(self) -> float:
        return self.tracer.total("comm")

    @property
    def sync_time_us(self) -> float:
        return self.tracer.total("sync")

    @property
    def api_time_us(self) -> float:
        return self.tracer.total("api")

    @property
    def per_iteration_us(self) -> float:
        return self.total_time_us / max(1, self.iterations)


@dataclass
class _RankState:
    rank: int
    bindings: dict[str, int]
    arrays: dict[str, np.ndarray]
    pending: list = field(default_factory=list)
    #: State -> its bound operations, LoopRegion -> its range; filled on
    #: first use, except for elements whose binding reads a loop variable.
    #: The operations close over this rank's fields, never the rank
    #: itself: the cache would hold itself, and with it the context
    bound: dict = field(default_factory=dict)
    host: Any = None
    stream: Any = None


#: where device operations run: one TB group's device context, grid
#: barrier and NVSHMEM handle
_Device = namedtuple("_Device", "dev grid nv")

#: compiled tasklet expressions, shared across executors (keyed by source)
_CODE_CACHE: dict[str, Any] = {}
_EVAL_GLOBALS: dict[str, Any] = {"__builtins__": {}, "np": np}


def _compiled(source: str):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(source, "<tasklet>", "eval")
    return code


def plan_state(state: State) -> tuple:
    """Get-or-build ``state``'s tasklet plan: one (output memlet,
    compiled expression) pair per tasklet, cached on the state."""
    plan = getattr(state, "_tasklet_plan", None)
    m = active_metrics()
    if plan is None:
        if m is not None:
            m.counter("sdfg.fastpath.plan_cache", outcome="miss").inc()
        plan = state._tasklet_plan = tuple(
            (next(e.memlet for e in state.edges
                  if isinstance(e.dst, AccessNode) and e.memlet is not None
                  and e.memlet.data == t.output),
             _compiled(t.expr_source))
            for t in state.tasklets)
    elif m is not None:
        m.counter("sdfg.fastpath.plan_cache", outcome="hit").inc()
    return plan


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


class SDFGExecutor:
    """Runs one SDFG SPMD across the node's GPUs, once: the simulator
    clock, tracer and signal flags of ``ctx`` belong to that run."""

    def __init__(
        self,
        sdfg: SDFG,
        ctx: MultiGPUContext,
        *,
        with_data: bool = True,
        comm_scope: Scope = Scope.THREAD,
        fastpath: str = "vector",
    ) -> None:
        self.sdfg = sdfg
        self.ctx = ctx
        self.with_data = with_data
        # Tasklets have one execution path; the keyword stays for callers
        # that still name it.
        if fastpath != "vector":
            raise ValueError(f"unknown fastpath mode {fastpath!r}: only 'vector' exists")
        #: issuing-group scope for generated puts.  THREAD reproduces
        #: §5.3.2's single-thread scheduling; BLOCK models the §5.4
        #: future-work cooperative scheduling (ablation benchmarks).
        self.comm_scope = comm_scope
        self.persistent = any(
            r.schedule is Schedule.GPU_PERSISTENT for r in sdfg.walk_regions()
        )
        libraries = {n.library for s in sdfg.walk_states() for n in s.library_nodes}
        self.nvshmem = NVSHMEMRuntime(ctx) if "NVSHMEM" in libraries else None
        self.comm = Communicator(ctx) if "MPI" in libraries else None
        self._signals = None
        self._sym_arrays: dict[str, Any] = {}
        self._ran = False
        #: False for comm-specialized programs: progress flags, not grid
        #: barriers, order their TB groups
        self._grid_sync = True
        #: states and loops whose binding reads a loop variable: re-bound
        #: on every execution instead of once per rank
        self._rebind: set = set()

    # -- entry point --------------------------------------------------------------

    def run(self, rank_args: list[dict[str, Any]]) -> ExecutionReport:
        """``rank_args[r]`` maps array names to NumPy arrays and
        param/symbol names to ints for rank ``r``.  Callable once.

        With data, the run works in place: ``report.arrays[r][name] is
        rank_args[r][name]``, holding the results.  An array argument
        must be a writeable ndarray of the declared shape and dtype, no
        two may share memory, and a symmetric array is passed on every
        rank or on none; otherwise ``ValueError`` names the rank and the
        array.  Without data, array arguments are ignored."""
        num_ranks = len(rank_args)
        if num_ranks > self.ctx.num_gpus:
            raise ValueError("more ranks than GPUs")
        if self._ran:
            raise RuntimeError(
                "SDFGExecutor.run() was already called: the simulator clock, "
                "tracer and signal flags carry over between runs; build a new "
                "executor on a fresh MultiGPUContext")
        self._ran = True
        if self.ctx.metrics is not None:
            self.ctx.metrics.counter(
                "sdfg.executor.runs",
                mode="persistent" if self.persistent else "discrete",
            ).inc()
        self._check_symmetric_shapes(rank_args)
        ranks = [self._prepare_rank(r, args) for r, args in enumerate(rank_args)]
        if self.with_data:
            self._bind_arrays(rank_args, ranks)
        loops, bindings = self.sdfg.loop_regions(), ranks[0].bindings
        iterations = max(1, evaluate_expr(loops[0].end, bindings)
                         - evaluate_expr(loops[0].start, bindings)) if loops else 1
        loop_vars = {loop.var for loop in loops}
        self._rebind = {el for el in (*self.sdfg.walk_states(), *loops)
                        if not loop_vars.isdisjoint(self._bound_symbols(el))}
        elements = self.sdfg.body.elements
        if (self.persistent and len(elements) == 1 and isinstance(elements[0], LoopRegion)
                and getattr(elements[0], "comm_specialized", False)):
            self._grid_sync = False
        for rs in ranks:
            rs.host = self.ctx.host(rs.rank)
            rs.stream = self.ctx.stream(rs.rank, "stream")
            prog = (self._host_program(rs) if self._grid_sync
                    else self._specialized_host_program(rs, elements[0]))
            self.ctx.sim.spawn(prog, name=f"sdfg.host{rs.rank}")
        total = self.ctx.run()
        return ExecutionReport(
            total_time_us=total,
            iterations=iterations,
            tracer=self.ctx.tracer or Tracer(),
            arrays=[r.arrays for r in ranks] if self.with_data else None,
        )

    # -- setup ------------------------------------------------------------------------

    def _check_symmetric_shapes(self, rank_args: list[dict[str, Any]]) -> None:
        """Symmetric (NVSHMEM) allocations must be identically shaped on
        every PE, which means every symbol a symmetric array's shape
        uses must agree across ranks.  Unequal slabs would silently
        corrupt remote writes, so reject them loudly (pad your domains,
        as real NVSHMEM codes do)."""
        symmetric_symbols: set[str] = set()
        for desc in self.sdfg.arrays.values():
            if desc.storage is Storage.SYMMETRIC and not desc.transient:
                for dim in desc.shape:
                    symmetric_symbols |= free_symbols(dim)
        for symbol in sorted(symmetric_symbols):
            values = {int(a[symbol]) for a in rank_args if symbol in a}
            if len(values) > 1:
                raise ValueError(
                    f"symmetric arrays require symbol {symbol!r} to be equal on "
                    f"every rank (got {sorted(values)}); pad the decomposition"
                )

    def _prepare_rank(self, rank: int, args: dict[str, Any]) -> _RankState:
        bindings: dict[str, int] = {}
        for name in list(self.sdfg.symbols) + self.sdfg.params:
            if name in args:
                bindings[name] = int(args[name])
        # flags array (allocated by MPIToNVSHMEM) -> signal words
        if self.nvshmem is not None and FLAGS_ARRAY in self.sdfg.arrays and self._signals is None:
            n_flags = evaluate_expr(self.sdfg.arrays[FLAGS_ARRAY].shape[0], bindings)
            self._signals = self.nvshmem.malloc_signals("sdfg_flags", n_flags)
        return _RankState(rank, bindings, {})

    def _bind_arrays(self, rank_args: list[dict[str, Any]], ranks: list[_RankState]) -> None:
        """Bind every array of every rank: a passed argument *is* the
        rank's array, the others are zero-allocated.  A symmetric array's
        ``nvshmem_malloc`` adopts the passed arrays as its PE buffers."""
        adopted = []
        for name, desc in self.sdfg.arrays.items():
            if desc.transient and name == FLAGS_ARRAY:
                continue
            on = [r for r, args in enumerate(rank_args) if name in args]
            symmetric = desc.storage is Storage.SYMMETRIC
            if symmetric and 0 < len(on) < len(rank_args):
                raise ValueError(
                    f"symmetric array {name!r} is passed on rank(s) {on} only: "
                    f"every rank must pass it, or none")
            for r in on:
                arg = rank_args[r][name]
                _check_argument(r, name, arg, self._shape_of(name, ranks[r].bindings),
                                desc.dtype)
                adopted.append((arg, r, name))
            passed = [args.get(name) for args in rank_args]
            if symmetric and self.nvshmem is not None:
                passed += [None] * (self.nvshmem.n_pes - len(passed))
                sym = self._sym_arrays[name] = self.nvshmem.malloc(
                    name, self._shape_of(name, ranks[0].bindings), desc.dtype, data=passed)
                for rs in ranks:
                    rs.arrays[name] = sym.local(rs.rank)
            else:
                for rs, arg in zip(ranks, passed):
                    rs.arrays[name] = (arg if arg is not None else
                                       np.zeros(self._shape_of(name, rs.bindings), desc.dtype))
        _check_disjoint(adopted)

    def _shape_of(self, name: str, bindings: dict[str, int]) -> tuple[int, ...]:
        desc = self.sdfg.arrays[name]
        return tuple(evaluate_expr(s, bindings) for s in desc.shape)

    def _peer_rank(self, peer: str | int, bindings: dict[str, int]) -> int:
        return bindings[peer] if isinstance(peer, str) else int(peer)

    # ======================= the walker =======================

    def _walk(self, elements, rs: _RankState, bindings: dict[str, int], device: _Device | None):
        """Run ``elements`` for one rank in program order: the walker of the
        discrete, persistent and specialized programs alike.  ``bindings``
        carries the loop variables (specialized TB groups keep their own)."""
        bound = rs.bound
        for el in elements:
            ops = bound.get(el)
            if ops is None:
                ops = self._bind(el, rs, bindings)
            if isinstance(el, LoopRegion):
                for t in ops:
                    bindings[el.var] = t
                    yield from self._walk(el.elements, rs, bindings, device)
                bindings.pop(el.var, None)
            else:
                for op in ops:
                    yield from op(device, bindings)

    # ======================= binding =======================

    def _bind(self, el, rs: _RankState, bindings: dict[str, int]):
        """Resolve a loop to its ``range`` or a state to its operations
        for one rank.  Cached on the rank unless the binding reads a loop
        variable; such an element is re-bound on every execution."""
        if isinstance(el, LoopRegion):
            bound = range(evaluate_expr(el.start, bindings), evaluate_expr(el.end, bindings))
        else:
            bound = self._bind_state(el, rs, bindings)
        if el not in self._rebind:
            rs.bound[el] = bound
        return bound

    def _bound_symbols(self, el) -> set[str]:
        """The symbols binding ``el`` reads.  Signal values are not bound
        (they are evaluated on every execution), so they do not count."""
        if isinstance(el, LoopRegion):
            return free_symbols(el.start) | free_symbols(el.end)
        names: set[str] = set()
        memlets = [e.memlet for e in el.edges if e.memlet is not None]
        for node in el.library_nodes:
            memlets += [getattr(node, a) for a in ("src", "dst", "buffer") if hasattr(node, a)]
            names.update(p for p in (getattr(node, a, None) for a in ("pe", "peer", "peer_param"))
                         if isinstance(p, str))
        for memlet in memlets:
            names.update(memlet.free_symbols(), *map(free_symbols, self.sdfg.arrays[memlet.data].shape))
        return names

    def _bind_state(self, state: State, rs: _RankState, bindings: dict[str, int]) -> tuple:
        """A state's operations, each ``op(device, bindings)`` returning
        the generator that performs it; PROC_NULL peers bind to nothing
        (the generated code guards them out)."""
        ops = []
        compute = bool(state.tasklets and state.map_entries)
        if compute:
            ops.append(self._bind_compute(state, rs, bindings))
        if self.persistent:
            for node in state.library_nodes:
                if isinstance(node, PutmemSignal):
                    ops.append(self._bind_put(node, rs, bindings))
                elif isinstance(node, SignalWait):
                    ops.append(self._bind_wait(node, bindings))
                else:
                    raise TypeError(f"device path cannot execute {node!r}")
            if self._grid_sync and getattr(state, "sync_after", True):
                ops.append(lambda device, _bindings: device.grid.wait())
        elif not compute:
            comm, rank, pending = self.comm, rs.rank, rs.pending
            for node in state.library_nodes:
                if isinstance(node, (MPIIsend, MPIIrecv)):
                    ops.append(self._bind_mpi_p2p(node, rs, bindings))
                elif isinstance(node, MPIWaitall):
                    ops.append(lambda device, _bindings: comm.waitall(rank, _take_all(pending)))
                elif isinstance(node, MPIBarrier):
                    ops.append(lambda device, _bindings: comm.barrier(rank))
                else:
                    raise TypeError(f"host path cannot execute {node!r}")
        return tuple(op for op in ops if op is not None)

    def _bind_compute(self, state: State, rs: _RankState, bindings: dict[str, int]):
        volume = 0  # elements written by the state's tasklets (timing basis)
        for edge in state.edges:
            if isinstance(edge.dst, AccessNode) and edge.memlet is not None:
                shape = self._shape_of(edge.memlet.data, bindings)
                volume += edge.memlet.volume(shape, bindings)
        volume, name = max(1, volume), state.name
        if self.with_data:
            # Tasklets are compiled once per state; the rank resolves its
            # output slices once and replays them on every execution.
            arrays = rs.arrays
            writes = tuple((memlet.data, memlet.resolve(arrays[memlet.data].shape, bindings),
                            code) for memlet, code in plan_state(state))
            hit = bound_counter("sdfg.fastpath.plan_cache", outcome="hit")
            executed = bound_counter("sdfg.fastpath.map_exec")
        first = True  # plan_state() counted the first execution's plan fetch

        def kernel(dev, bindings: dict[str, int]):
            nonlocal first
            yield from dev.compute(volume, name=name)
            if self.with_data:
                if not first:
                    hit()
                first = False
                namespace = {**arrays, **bindings}
                for data, index, code in writes:
                    arrays[data][index] = eval(code, _EVAL_GLOBALS, namespace)  # noqa: S307
                    executed()
        if self.persistent:
            return lambda device, bindings: kernel(device.dev, bindings)
        spec = KernelSpec(name, blocks=max(1, -(-volume // 1024)))
        host, stream = rs.host, rs.stream

        def launch(_device, bindings: dict[str, int]):
            snapshot = dict(bindings)  # the kernel runs after the host moves on
            return host.launch(stream, spec, lambda dev: kernel(dev, snapshot))
        return launch

    def _bind_mpi_p2p(self, node, rs: _RankState, bindings: dict[str, int]):
        assert self.comm is not None
        comm, rank, tag, host, stream = self.comm, rs.rank, node.tag, rs.host, rs.stream
        pending = rs.pending
        peer = self._peer_rank(node.peer, bindings)
        if peer == MPI_PROC_NULL:
            return None
        expansion = node.expand(self.sdfg, bindings)
        shape = self._shape_of(node.buffer.data, bindings)
        nbytes = node.buffer.volume(shape, bindings) * 8
        datatype = None
        if expansion.vector_datatype:
            lengths = node.buffer.dim_lengths(shape, bindings)
            datatype = VectorType(count=max(lengths), blocklength=1, stride=shape[-1])
        if self.with_data:
            index = node.buffer.resolve(shape, bindings)
            array = rs.arrays[node.buffer.data]

        def p2p(_device, _bindings):
            # Fig 5.1: generated stream sync + staging copy around each call
            if expansion.stream_sync:
                yield from host.stream_sync(stream)
            if expansion.staging_copy:
                yield from host.memcpy_async_modeled(stream, rank, rank, nbytes, name="stage")
                yield from host.stream_sync(stream)
            if isinstance(node, MPIIsend):
                values = (np.array(array[index]) if self.with_data
                          else np.zeros(max(1, nbytes // 8)))
                req = yield from comm.isend(rank, values, peer, tag, datatype)
            else:
                out = None
                if self.with_data:
                    view = array[index]
                    out = view if isinstance(view, np.ndarray) else _ScalarProxy(array, index)
                req = yield from comm.irecv(
                    rank, out, peer, tag, nbytes=nbytes, datatype=datatype
                )
            pending.append(req)
        return p2p

    def _bind_put(self, node: PutmemSignal, rs: _RankState, bindings: dict[str, int]):
        assert self.nvshmem is not None and self._signals is not None
        peer = self._peer_rank(node.pe, bindings)
        if peer == MPI_PROC_NULL:
            return None
        expansion = node.expand(self.sdfg, bindings)
        # which lowering the shape dispatch chose (§5.3.1), per executed put
        count = bound_counter("sdfg.nvshmem.expansions", kind=expansion.kind)
        src_shape = self._shape_of(node.src.data, bindings)
        dst_shape = self._shape_of(node.dst.data, bindings)
        nbytes = node.src.volume(src_shape, bindings) * 8
        with_data, elements, data = self.with_data, max(1, nbytes // 8), node.src.data
        signals, flag, signal_value = self._signals, node.flag_index, node.signal_value
        signaled, scope = flag is not None, self.comm_scope
        # contiguous: one composite call; unsignaled, nobody is notified
        putmem = ("putmem_signal" if signaled else "putmem") + ("_nbi" if node.nbi else "")
        dst_sym = dst_index = src = src_index = None
        if with_data:
            dst_sym = self._sym_arrays.get(node.dst.data)
            dst_index = node.dst.resolve(dst_shape, bindings)
            src, src_index = rs.arrays[data], node.src.resolve(src_shape, bindings)

        # §5.3.2: generated code issues from a single thread by default
        def put(device: _Device, bindings: dict[str, int]):
            count()
            nv = device.nv
            value = evaluate_expr(signal_value, bindings) if signaled else 0
            values = np.array(src[src_index]) if with_data else 0.0
            if expansion.access is AccessKind.CONTIGUOUS:
                yield from getattr(nv, putmem)(
                    dst_sym, dst_index, values, *((signals, flag, value) if signaled else ()),
                    dest_pe=peer, nbytes=nbytes, scope=scope, name=f"put:{data}")
                return
            if expansion.kind == "p_mapped" or expansion.access is AccessKind.STRIDED:
                issue = nv.p_mapped if expansion.kind == "p_mapped" else nv.iput
                yield from issue(dst_sym, dst_index,
                                 np.atleast_1d(values).ravel() if with_data else values,
                                 dest_pe=peer, elements=elements, name=f"{expansion.kind}:{data}")
            else:  # scalar
                scalar = float(np.asarray(values).reshape(-1)[0]) if with_data else 0.0
                yield from nv.p(dst_sym, dst_index, scalar, dest_pe=peer, name=f"p:{data}")
            yield from nv.quiet()
            if signaled:
                yield from nv.signal_op(signals, flag, value, dest_pe=peer)
        return put

    def _bind_wait(self, node: SignalWait, bindings: dict[str, int]):
        assert self.nvshmem is not None and self._signals is not None
        # SPMD: skip the wait when the matching sender is PROC_NULL —
        # generated code guards on the same peer parameter as the
        # original Irecv, recorded on the node at transform time.
        guard = getattr(node, "peer_param", None)
        if guard is not None and self._peer_rank(guard, bindings) == MPI_PROC_NULL:
            return None
        signals, flag, value = self._signals, node.flag_index, node.value
        return lambda device, bindings: device.nv.signal_wait_until(
            signals, flag, WaitCond.GE, evaluate_expr(value, bindings))

    # ======================= host programs =======================

    def _device(self, rs: _RankState, dev, grid) -> _Device:
        nv = self.nvshmem.device(rs.rank, lane=dev.lane) if self.nvshmem is not None else None
        return _Device(dev, grid, nv)

    def _host_program(self, rs: _RankState, make_groups=None):
        """Discrete: walk on the host, then drain the device.  Persistent:
        one cooperative kernel, by default with a single TB group walking
        the whole program."""
        body = self.sdfg.body.elements
        if not self.persistent:
            yield from self._walk(body, rs, rs.bindings, None)
            yield from rs.host.stream_sync(rs.stream)
            return

        def group_body(dev, grid):
            yield from self._walk(body, rs, rs.bindings, self._device(rs, dev, grid))

        blocks = self.ctx.node.gpu.max_coresident_blocks(1024)
        name = f"{self.sdfg.name}_persistent"
        if make_groups is None:
            groups = [TBGroup("program", blocks, group_body)]
        else:
            groups, name = make_groups(blocks), f"{name}_specialized"
        kernel = yield from launch_persistent(rs.host, rs.stream, name, groups)
        yield from rs.host.event_sync(kernel.event)

    # -- §5.4 future work: TB-specialized generated code -------------------------

    def _specialized_host_program(self, rs: _RankState, loop: LoopRegion):
        """Two specialized TB groups inside the generated persistent
        kernel: a comm group running the NVSHMEM states and a compute
        group running the map states, ordered by local-memory progress
        flags instead of grid-wide barriers (cf. §4.1.2 and §5.4)."""
        if not all(isinstance(el, State) for el in loop.elements):
            raise TypeError("comm-specialized loops cannot nest regions")
        # partition the loop body into alternating comm/comp runs
        runs = [(group, list(states)) for group, states in
                groupby(loop.elements, key=lambda el: getattr(el, "tb_group", "comp"))]
        per_iter = {g: sum(1 for h, _ in runs if h == g) for g in ("comm", "comp")}
        poll = self.ctx.cost.host_flag_poll_us
        progress = {
            "comm": LocalSpinFlag(self.ctx.sim, poll, name=f"gpu{rs.rank}.comm_prog"),
            "comp": LocalSpinFlag(self.ctx.sim, poll, name=f"gpu{rs.rank}.comp_prog"),
        }
        iterations = self._bind(loop, rs, rs.bindings)

        def make_group(which: str):
            other = "comm" if which == "comp" else "comp"
            # the groups progress through iterations independently
            bindings = dict(rs.bindings)

            def body(dev, grid):
                device = self._device(rs, dev, grid)
                done = 0
                for k, t in enumerate(iterations):
                    bindings[loop.var] = t
                    earlier_other = 0
                    for group, states in runs:
                        if group != which:
                            earlier_other += 1
                            continue
                        # all earlier other-group runs (this and past
                        # iterations) must have completed
                        yield from progress[other].wait_until(
                            k * per_iter[other] + earlier_other
                        )
                        yield from self._walk(states, rs, bindings, device)
                        done += 1
                        progress[which].post(done)
                # drain: let the other group finish its final runs
                yield from progress[other].wait_until(len(iterations) * per_iter[other])

            return body

        def groups(total: int) -> list[TBGroup]:
            comm_blocks = max(1, min(4, total - 1))
            return [TBGroup("comm", comm_blocks, make_group("comm")),
                    TBGroup("comp", total - comm_blocks, make_group("comp"))]

        return self._host_program(rs, groups)


def _check_argument(rank: int, name: str, arg: Any, shape: tuple[int, ...],
                    dtype: type) -> None:
    """In-place binding takes only what the rank's array could be."""
    want = f"a writeable {np.dtype(dtype)} ndarray of shape {shape}"
    if not isinstance(arg, np.ndarray):
        raise ValueError(f"rank {rank}: array {name!r} must be {want}, "
                         f"got {type(arg).__name__}")
    if arg.shape != shape or arg.dtype != dtype or not arg.flags.writeable:
        got = f"{'' if arg.flags.writeable else 'read-only '}{arg.dtype} {arg.shape}"
        raise ValueError(f"rank {rank}: array {name!r} must be {want}, got {got}")


def _check_disjoint(adopted: list[tuple[np.ndarray, int, str]]) -> None:
    """Reject two ``(array, rank, name)`` arguments that may share memory:
    a write to one would land in the other.  Sorted by first byte, an
    array overlaps an earlier one iff it starts before the furthest end
    seen so far (the bounds test of ``np.may_share_memory``)."""
    furthest = None  # (past-the-end byte, rank, name)
    for lo, hi, rank, name in sorted((*byte_bounds(a), r, n) for a, r, n in adopted if a.size):
        if furthest is not None and lo < furthest[0]:
            raise ValueError(
                f"rank {rank}: array {name!r} may share memory with rank "
                f"{furthest[1]}'s array {furthest[2]!r}; pass distinct arrays")
        if furthest is None or hi > furthest[0]:
            furthest = (hi, rank, name)


def _take_all(pending: list) -> list:
    """Hand a ``Waitall`` the outstanding requests, leaving none behind."""
    taken = pending[:]
    pending.clear()
    return taken


class _ScalarProxy:
    """NumPy-ish single-element receive target (``A[0] = value``)."""

    def __init__(self, array: np.ndarray, index: Any) -> None:
        self.array = array
        self.index = index
        self.nbytes = array.dtype.itemsize

    def __setitem__(self, _ignored: Any, value: Any) -> None:
        self.array[self.index] = np.asarray(value).reshape(-1)[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return (1,)
