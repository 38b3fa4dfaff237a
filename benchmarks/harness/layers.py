"""Per-layer host-time tracing from outside the program.

The traced child patches each layer's public boundary functions (on
their classes, or in every ``repro`` module that imported the name)
with wrappers that keep a *layer stack*: host time always accrues to
the boundary on top of the stack, so a layer's self time is the time
its own code ran, excluding the layers it called into.  Time outside
every boundary belongs to the ``harness`` root.  By construction the
self times of all boundaries plus the root add up to the traced wall
time, and :meth:`Profiler.stop` checks the stack came back empty.

Three rules keep the attribution honest for a discrete-event engine:

* a wrapped function that returns a generator is timed on every resume
  of that generator, not just on the call that created it;
* a generator handed to ``Simulator.spawn`` (a simulated process body)
  and a callable handed to ``Simulator.call_at`` count toward the layer
  whose module defines them, not toward the engine that resumes them;
* counters (``events``, ``spans``, ``legs_per_batch``, ...) are read at
  the same boundaries, so ratios are measured where the work happens.

Spans ``(boundary, start, end, parent)`` are recorded only when asked
for (``--spans``); they stay in memory and are written out as a Chrome
trace when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from typing import Any, Callable

#: the layers, in report order; ``harness`` is the root (everything
#: outside the boundaries below)
LAYERS = ("sim.engine", "sim.trace", "nvshmem", "runtime", "hw",
          "sdfg.compile", "sdfg.codegen", "stencil", "perf", "obs",
          "recover", "tune", "harness")
ROOT = "harness"

#: ``(module prefix, layer)`` — the layer a spawned process body or a
#: scheduled callback belongs to, by the module that defines it (first
#: match wins).  ``repro.core`` holds the device execution primitives
#: (persistent kernels, grid barriers) the runtime layer launches.
MODULE_LAYERS = (
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim", "sim.engine"),
    ("repro.nvshmem", "nvshmem"),
    ("repro.runtime", "runtime"),
    ("repro.core", "runtime"),
    ("repro.hw", "hw"),
    ("repro.sdfg.codegen", "sdfg.codegen"),
    ("repro.sdfg", "sdfg.compile"),
    ("repro.stencil", "stencil"),
    ("repro.perf", "perf"),
    ("repro.obs", "obs"),
    ("repro.recover", "recover"),
    ("repro.tune", "tune"),
)

#: every public method defined on the class (and its subclasses)
PUBLIC = "*"

#: ``layer -> [(module, class or None, names)]``: the boundaries the
#: traced run wraps.  With a class, the names are its methods (also
#: wrapped where a subclass overrides them); without, module functions.
BOUNDARIES: dict[str, list[tuple[str, str | None, Any]]] = {
    "sim.engine": [
        ("repro.sim.engine", "Simulator", ("run", "spawn", "call_at", "kill")),
        ("repro.sim.engine", "Flag", ("set", "add")),
    ],
    "sim.trace": [
        ("repro.sim.trace", "Tracer", (
            "record", "begin", "end", "close_all", "add_counter",
            "add_instant", "total", "overlap_ratio", "busy_per_lane",
            "spans_in")),
    ],
    "nvshmem": [
        ("repro.nvshmem.device", "NVSHMEMDevice", PUBLIC),
        ("repro.nvshmem.api", "NVSHMEMRuntime", (
            "__init__", "enqueue_coalesced", "malloc", "malloc_signals")),
    ],
    "runtime": [
        ("repro.runtime.stream", "Stream", PUBLIC),
        ("repro.runtime.context", "HostThread", PUBLIC),
        ("repro.runtime.kernel", "DeviceKernelContext", PUBLIC),
        ("repro.runtime.mpi", "Communicator", PUBLIC),
        ("repro.runtime.context", "MultiGPUContext", ("__init__", "run")),
    ],
    "hw": [
        ("repro.hw.interconnect", "NodeTopology", (
            "__init__", "transfer_us", "rail_transfer_us", "staged_route_us")),
        ("repro.hw.interconnect", "RailLink", ("occupy",)),
        ("repro.hw.calibration", "CostModel", ("compute_time_us", "transfer_us")),
    ],
    "sdfg.compile": [
        ("repro.sdfg.frontend", "PythonProgram", ("to_sdfg",)),
        ("repro.sdfg.transforms.gpu_transform", None, ("gpu_transform",)),
        ("repro.sdfg.transforms.map_fusion", None, ("map_fusion",)),
        ("repro.sdfg.transforms.mpi_to_nvshmem", None, ("mpi_to_nvshmem",)),
        ("repro.sdfg.transforms.nvshmem_array", None, ("nvshmem_array",)),
        ("repro.sdfg.transforms.persistent", None, ("gpu_persistent_kernel",)),
        ("repro.sdfg.transforms.overlap", None, ("auto_overlap",)),
        ("repro.sdfg.validation", None, ("validate",)),
        ("repro.sdfg.lint", None, ("lint_communication",)),
    ],
    "sdfg.codegen": [
        ("repro.sdfg.codegen.executor", "SDFGExecutor", ("__init__", "run")),
    ],
    "stencil": [
        ("repro.stencil.base", "StencilVariant", ("__init__", "run")),
        ("repro.stencil.batch", None, ("run_batched_stencil", "demux_tracer")),
    ],
    "perf": [
        ("repro.perf.sweep", "SweepRunner", ("map",)),
        ("repro.perf.warm", None, ("warm",)),
    ],
    "obs": [
        ("repro.obs.critical", None, ("critical_path",)),
        ("repro.obs.whatif", None, ("whatif_report", "replay_makespan")),
        ("repro.obs.timeline", None, ("timeline_payload",)),
        ("repro.sim.trace", "Tracer", ("to_chrome_trace",)),
    ],
    "recover": [
        ("repro.recover.runner", None, ("run_with_recovery",)),
        ("repro.recover.checkpoint", "CheckpointStore", ("save",)),
        ("repro.nvshmem.heap", "SymmetricHeap", ("snapshot", "restore")),
    ],
    "tune": [
        ("repro.tune", None, ("tune", "trial_point")),
    ],
}

#: per-layer counters beyond ``self_s``/``calls``/``share``:
#: ``name -> (unit, better)``
EXTRA_METRICS = {
    "sim.engine.events": ("count", "lower"),
    "sim.engine.spawned": ("count", "lower"),
    "sim.engine.events_per_s": ("1/s", "higher"),
    "sim.trace.spans": ("count", "lower"),
    "nvshmem.ops": ("count", "lower"),
    "nvshmem.legs_per_batch": ("legs/batch", "higher"),
    "hw.rail_occupies": ("count", "lower"),
    "sdfg.codegen.runs": ("count", "lower"),
    "sdfg.codegen.cells": ("count", "lower"),
    "sdfg.codegen.cells_per_s": ("1/s", "higher"),
    "stencil.runs": ("count", "lower"),
    "stencil.batched_members": ("count", "higher"),
    "stencil.demux_s": ("s", "lower"),
    "perf.points": ("count", "lower"),
    "perf.batch_groups": ("count", "lower"),
    "perf.batch_points": ("count", "higher"),
    "perf.batch_fallbacks": ("count", "lower"),
    "obs.spans_read": ("count", "lower"),
    "recover.restarts": ("count", "lower"),
    "recover.checkpoint_bytes": ("B", "lower"),
    "tune.trials": ("count", "lower"),
    "tune.model_regret_pct": ("%", "lower"),
    "harness.trace_overhead": ("fraction", "lower"),
}


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its ``(unit, better)``."""
    specs: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower")
        if layer != ROOT:
            specs[f"{layer}.calls"] = ("count", "lower")
        specs[f"{layer}.share"] = ("fraction", "lower")
    specs.update(EXTRA_METRICS)
    return specs


def module_layer(module: str) -> str | None:
    """The layer a ``repro`` module belongs to (None: no layer)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Profiler:
    """Layer-stack host-time accounting for one traced pass.

    ``install()`` patches the boundaries (after the workload's modules
    are imported, before its first call); ``start()`` and ``pause()``
    bracket the timed section; ``report()`` returns the per-layer numbers.
    """

    def __init__(self, src_root: str, *, record_spans: bool = False) -> None:
        #: ``<checkout>/src`` — turns code file names into module names
        self._src_root = os.path.realpath(src_root) + os.sep
        #: boundary keys (``layer:qualname``) and their parallel tallies
        self.keys: list[str] = [f"{ROOT}:pass"]
        self.key_layer: list[str] = [ROOT]
        self.self_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        self._key_ids: dict[str, int] = {self.keys[0]: 0}
        self._code_keys: dict[Any, int] = {}
        self.counters: dict[str, float] = {}
        self.regrets: list[float] = []
        self._cur = 0
        self._stack: list[int] = []
        self._last = self._resumed = 0.0
        #: spans as ``(key, start, end, parent)`` (None: not recording)
        self.spans: list[list] | None = [] if record_spans else None
        self._span_stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.wall_s = 0.0
        self.unbalanced = False

    # -- the layer stack ------------------------------------------------------

    def _key(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            self.key_layer.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return kid

    def _enter(self, kid: int) -> None:
        now = time.perf_counter()
        self.self_s[self._cur] += now - self._last
        self._last = now
        self._stack.append(self._cur)
        self._cur = kid
        if self.spans is not None:
            parent = self._span_stack[-1] if self._span_stack else -1
            self._span_stack.append(len(self.spans))
            self.spans.append([kid, now, now, parent])

    def _exit(self) -> None:
        now = time.perf_counter()
        self.self_s[self._cur] += now - self._last
        self._last = now
        self._cur = self._stack.pop()
        if self.spans is not None:
            self.spans[self._span_stack.pop()][2] = now

    def _timed_gen(self, gen: types.GeneratorType, kid: int):
        """Delegate to ``gen``, entering boundary ``kid`` on each resume."""
        send = None
        error: BaseException | None = None
        while True:
            self._enter(kid)
            try:
                if error is None:
                    item = gen.send(send)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            error = None
            try:
                send = yield item
            except GeneratorExit:
                self._enter(kid)
                try:
                    gen.close()
                finally:
                    self._exit()
                raise
            except BaseException as exc:  # thrown in: forward to gen
                error, send = exc, None

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn: Callable, kid: int, pre: Callable | None,
              post: Callable | None) -> Callable:
        prof = self
        calls = self.calls
        gen_type = types.GeneratorType

        if pre is None and post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[kid] += 1
                prof._enter(kid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    prof._exit()
                if result.__class__ is gen_type:
                    return prof._timed_gen(result, kid)
                return result
            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            calls[kid] += 1
            token = None
            if pre is not None:
                args, kwargs, token = pre(prof, args, kwargs)
            prof._enter(kid)
            started = prof._last
            try:
                result = fn(*args, **kwargs)
            finally:
                prof._exit()
            if post is not None:
                post(prof, token, args, result, prof._last - started)
            if result.__class__ is gen_type:
                return prof._timed_gen(result, kid)
            return result
        return hooked

    def body_layer(self, code: types.CodeType) -> int | None:
        """Boundary key of a process body / callback, by defining module."""
        kid = self._code_keys.get(code)
        if kid is None:
            path = os.path.realpath(code.co_filename)
            if not path.startswith(self._src_root):
                return None
            module = path[len(self._src_root):-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            layer = module_layer(module)
            if layer is None:
                return None
            name = getattr(code, "co_qualname", code.co_name)
            kid = self._code_keys[code] = self._key(layer, f"{module}.{name}")
        return kid

    def wrap_body(self, gen: Any) -> Any:
        """Wrap a spawned process body so its resumes count toward the
        layer that defines it (already-wrapped bodies pass through)."""
        code = getattr(gen, "gi_code", None)
        if code is None or code is _TIMED_GEN_CODE:
            return gen
        kid = self.body_layer(code)
        return gen if kid is None else self._timed_gen(gen, kid)

    def wrap_callback(self, fn: Callable) -> Callable:
        """Wrap a scheduled callback like :meth:`wrap_body`."""
        code = getattr(fn, "__code__", None)
        if code is None:
            code = getattr(getattr(fn, "__func__", None), "__code__", None)
        kid = self.body_layer(code) if code is not None else None
        if kid is None:
            return fn
        prof = self

        def callback():
            prof._enter(kid)
            try:
                return fn()
            finally:
                prof._exit()
        return callback

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary in :data:`BOUNDARIES`."""
        for layer, entries in BOUNDARIES.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names:
                        self._patch_function(layer, module, name)
                else:
                    self._patch_class(layer, getattr(module, class_name), names)

    def _patch_function(self, layer: str, module: types.ModuleType,
                        name: str) -> None:
        original = getattr(module, name)
        kid = self._key(layer, original.__qualname__)
        wrapper = self._wrap(original, kid,
                             *_HOOKS.get(original.__qualname__, (None, None)))
        # rebind the name in every repro module that imported it
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, layer: str, cls: type, names: Any) -> None:
        for klass in _class_tree(cls):
            for attr, value in list(vars(klass).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if names == PUBLIC:
                    if attr.startswith("_"):
                        continue
                elif attr not in names:
                    continue
                qualname = value.__qualname__
                base_name = f"{cls.__name__}.{attr}"
                kid = self._key(layer, qualname)
                pre, post = _HOOKS.get(base_name, (None, None))
                self._patched.append((klass, attr, value))
                setattr(klass, attr, self._wrap(value, kid, pre, post))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- the timed section ---------------------------------------------------------

    def start(self) -> None:
        """Zero every tally and start the clock at the root (the timed
        section runs in chunks: ``pause``/``resume`` between them)."""
        for i in range(len(self.self_s)):
            self.self_s[i] = 0.0
            self.calls[i] = 0
        self.counters.clear()
        self.regrets.clear()
        self.unbalanced = False
        if self.spans is not None:
            self.spans.clear()
            self._span_stack.clear()
        self._stack.clear()
        self._cur = 0
        self.wall_s = 0.0
        self._last = self._resumed = time.perf_counter()

    def pause(self) -> None:
        """Stop the clock (between chunks, where the stack is empty)."""
        now = time.perf_counter()
        self.self_s[self._cur] += now - self._last
        self.wall_s += now - self._resumed
        # anything left on the stack means an enter without its exit
        self.unbalanced |= bool(self._stack) or self._cur != 0

    def resume(self) -> None:
        self._last = self._resumed = time.perf_counter()

    # -- results -------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Per-layer ``self_s``/``calls``/``share`` plus the counters,
        and the per-boundary breakdown (``boundaries``)."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        boundaries = {}
        for kid, key in enumerate(self.keys):
            layer = self.key_layer[kid]
            layer_self[layer] += self.self_s[kid]
            layer_calls[layer] += self.calls[kid]
            if self.calls[kid] or self.self_s[kid]:
                boundaries[key] = {"calls": self.calls[kid],
                                   "self_s": self.self_s[kid]}
        wall = self.wall_s or 1.0
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
            if layer != ROOT:
                metrics[f"{layer}.calls"] = layer_calls[layer]
            metrics[f"{layer}.share"] = layer_self[layer] / wall
        c = self.counters
        for name in EXTRA_METRICS:
            metrics[name] = c.get(name, 0)
        metrics["sim.engine.spawned"] = self.calls_of("sim.engine:Simulator.spawn")
        metrics["sim.trace.spans"] = self.calls_of("sim.trace:Tracer.record")
        metrics["hw.rail_occupies"] = self.calls_of("hw:RailLink.occupy")
        metrics["sdfg.codegen.runs"] = self.calls_of("sdfg.codegen:SDFGExecutor.run")
        metrics["stencil.runs"] = (self.calls_of("stencil:StencilVariant.run")
                                   + self.calls_of("stencil:run_batched_stencil"))
        metrics["nvshmem.ops"] = sum(
            self.calls[kid] for kid, key in enumerate(self.keys)
            if key.startswith("nvshmem:NVSHMEMDevice."))
        engine_s = layer_self["sim.engine"]
        metrics["sim.engine.events_per_s"] = (
            c.get("sim.engine.events", 0) / engine_s if engine_s else 0.0)
        codegen_s = layer_self["sdfg.codegen"]
        metrics["sdfg.codegen.cells_per_s"] = (
            c.get("sdfg.codegen.cells", 0) / codegen_s if codegen_s else 0.0)
        batches = c.get("nvshmem.batches", 0)
        metrics["nvshmem.legs_per_batch"] = (
            c.get("nvshmem.legs", 0) / batches if batches else 0.0)
        metrics["tune.model_regret_pct"] = (
            sum(self.regrets) / len(self.regrets) if self.regrets else 0.0)
        return {
            "wall_s": self.wall_s,
            "unbalanced": self.unbalanced,
            "metrics": metrics,
            "boundaries": boundaries,
        }

    def calls_of(self, key: str) -> int:
        kid = self._key_ids.get(key)
        return self.calls[kid] if kid is not None else 0

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as Chrome trace events (µs)."""
        spans = self.spans or []
        t0 = spans[0][1] if spans else 0.0
        events = [
            {"name": self.keys[kid].partition(":")[2],
             "cat": self.key_layer[kid], "ph": "X", "pid": 0, "tid": 0,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent}}
            for kid, start, end, parent in spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        return len(events)


def _class_tree(cls: type) -> list[type]:
    """``cls`` and every subclass, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _class_tree(sub) if c not in out)
    return out


_TIMED_GEN_CODE = Profiler._timed_gen.__code__


def _bump(prof: Profiler, name: str, by: float) -> None:
    prof.counters[name] = prof.counters.get(name, 0) + by


# -- boundary hooks: ``qualname -> (pre, post)``.  ``pre(prof, args, kwargs)``
# returns ``(args, kwargs, token)`` (it may substitute arguments);
# ``post(prof, token, args, result, inclusive seconds)`` reads counters.


def _spawn_pre(prof, args, kwargs):
    if len(args) > 1:
        args = (args[0], prof.wrap_body(args[1]), *args[2:])
    elif "gen" in kwargs:
        kwargs = {**kwargs, "gen": prof.wrap_body(kwargs["gen"])}
    return args, kwargs, None


def _call_at_pre(prof, args, kwargs):
    if len(args) > 2:
        args = (args[0], args[1], prof.wrap_callback(args[2]), *args[3:])
    elif "fn" in kwargs:
        kwargs = {**kwargs, "fn": prof.wrap_callback(kwargs["fn"])}
    return args, kwargs, None


def _run_pre(prof, args, kwargs):
    return args, kwargs, args[0].n_events


def _run_post(prof, before, args, result, elapsed):
    _bump(prof, "sim.engine.events", args[0].n_events - before)


def _enqueue_pre(prof, args, kwargs):
    return args, kwargs, args[0].n_batches


def _enqueue_post(prof, before, args, result, elapsed):
    _bump(prof, "nvshmem.legs", 1)
    _bump(prof, "nvshmem.batches", args[0].n_batches - before)


def _executor_post(prof, token, args, result, elapsed):
    executor, rank_args = args[0], args[1]
    if not executor.with_data:
        return
    # Jacobi cells: two relaxation phases over every rank's interior
    # per time step (``for t in range(1, TSTEPS)``)
    cells = 0
    for params in rank_args:
        interior = 1
        for extent in params["A"].shape:
            interior *= extent - 2
        cells += 2 * (params["TSTEPS"] - 1) * interior
    _bump(prof, "sdfg.codegen.cells", cells)


def _batched_post(prof, token, args, result, elapsed):
    _bump(prof, "stencil.batched_members", len(args[1]))


def _demux_post(prof, token, args, result, elapsed):
    _bump(prof, "stencil.demux_s", elapsed)


def _map_pre(prof, args, kwargs):
    runner = args[0]
    return args, kwargs, (runner.batch_groups, runner.batch_points,
                          runner.batch_fallbacks)


def _map_post(prof, before, args, result, elapsed):
    runner = args[0]
    _bump(prof, "perf.points", len(args[2]))
    _bump(prof, "perf.batch_groups", runner.batch_groups - before[0])
    _bump(prof, "perf.batch_points", runner.batch_points - before[1])
    _bump(prof, "perf.batch_fallbacks", runner.batch_fallbacks - before[2])


def _obs_pre(prof, args, kwargs):
    # count spans once per outermost analysis call (whatif_report
    # replays through replay_makespan: not a second read)
    return args, kwargs, prof.key_layer[prof._cur] != "obs"


def _obs_post(prof, outermost, args, result, elapsed):
    if outermost:
        spans = getattr(args[0], "spans", args[0])
        _bump(prof, "obs.spans_read", len(spans) if hasattr(spans, "__len__") else 0)


def _recovery_post(prof, token, args, result, elapsed):
    _bump(prof, "recover.restarts", result.restarts)
    _bump(prof, "recover.checkpoint_bytes", result.store.total_bytes())


def _tune_post(prof, token, args, result, elapsed):
    _bump(prof, "tune.trials", len(result.trials))
    prof.regrets.append(result.model_regret_percent)


_OBS = (_obs_pre, _obs_post)
_HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "Simulator.spawn": (_spawn_pre, None),
    "Simulator.call_at": (_call_at_pre, None),
    "Simulator.run": (_run_pre, _run_post),
    "NVSHMEMRuntime.enqueue_coalesced": (_enqueue_pre, _enqueue_post),
    "SDFGExecutor.run": (None, _executor_post),
    "run_batched_stencil": (None, _batched_post),
    "demux_tracer": (None, _demux_post),
    "SweepRunner.map": (_map_pre, _map_post),
    "critical_path": _OBS,
    "whatif_report": _OBS,
    "replay_makespan": _OBS,
    "timeline_payload": _OBS,
    "Tracer.to_chrome_trace": _OBS,
    "run_with_recovery": (None, _recovery_post),
    "tune": (None, _tune_post),
}

