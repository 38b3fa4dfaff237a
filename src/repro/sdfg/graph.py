"""The SDFG container: arrays, states, control-flow regions.

Control flow follows modern DaCe's region model: an :class:`SDFG` owns
a top-level region whose elements are :class:`State` (a dataflow
multigraph executed once) or :class:`LoopRegion` (a sequential loop of
nested elements — the stencil time loop).  A
``GPUPersistentKernel``-transformed loop region carries
``Schedule.GPU_PERSISTENT`` and executes entirely on the device.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from repro.hw.memory import Storage
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, LibraryNode, MapEntry, MapExit, Node, Tasklet
from repro.sdfg.symbols import Expr, Sym, expr_to_str

__all__ = ["ArrayDesc", "Edge", "LoopRegion", "Region", "SDFG", "Schedule", "State"]


class Schedule(enum.Enum):
    """Where a state/map/region executes."""

    CPU = "cpu"
    GPU_DEVICE = "gpu_device"          #: discrete GPU kernel per map
    GPU_PERSISTENT = "gpu_persistent"  #: fused persistent cooperative kernel


@dataclass
class ArrayDesc:
    """An array container: shape (possibly symbolic), dtype, storage."""

    name: str
    shape: tuple[Expr, ...]
    dtype: type = np.float64
    storage: Storage = Storage.HOST
    transient: bool = False

    @property
    def ndim(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class Edge:
    """Dataflow edge carrying an optional memlet."""

    src: Node
    dst: Node
    memlet: Memlet | None = None


class State:
    """One dataflow multigraph, executed once per reaching of the state."""

    def __init__(self, name: str, schedule: Schedule = Schedule.CPU) -> None:
        self.name = name
        self.schedule = schedule
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def add_edge(self, src: Node, dst: Node, memlet: Memlet | None = None) -> Edge:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError("edge endpoints must be added to the state first")
        edge = Edge(src, dst, memlet)
        self.edges.append(edge)
        return edge

    # -- queries -----------------------------------------------------------------

    def in_edges(self, node: Node) -> list[Edge]:
        return [e for e in self.edges if e.dst is node]

    def out_edges(self, node: Node) -> list[Edge]:
        return [e for e in self.edges if e.src is node]

    def nodes_of(self, kind: type) -> list[Node]:
        return [n for n in self.nodes if isinstance(n, kind)]

    @property
    def library_nodes(self) -> list[LibraryNode]:
        return [n for n in self.nodes if isinstance(n, LibraryNode)]

    @property
    def tasklets(self) -> list[Tasklet]:
        return [n for n in self.nodes if isinstance(n, Tasklet)]

    @property
    def map_entries(self) -> list[MapEntry]:
        return [n for n in self.nodes if isinstance(n, MapEntry)]

    def writes(self) -> set[str]:
        """Array names written in this state (edges into access nodes)."""
        return {
            e.dst.data for e in self.edges
            if isinstance(e.dst, AccessNode) and e.memlet is not None
        }

    def reads(self) -> set[str]:
        """Array names read in this state (edges out of access nodes)."""
        return {
            e.src.data for e in self.edges
            if isinstance(e.src, AccessNode) and e.memlet is not None
        }

    def __repr__(self) -> str:
        return f"<State {self.name} ({len(self.nodes)} nodes, {self.schedule.value})>"


class Region:
    """An ordered sequence of states and nested regions."""

    def __init__(self, schedule: Schedule = Schedule.CPU) -> None:
        self.schedule = schedule
        self.elements: list[Union[State, "LoopRegion"]] = []

    def add(self, element: Union[State, "LoopRegion"]):
        self.elements.append(element)
        return element

    def walk_states(self) -> Iterator[State]:
        for el in self.elements:
            if isinstance(el, State):
                yield el
            else:
                yield from el.walk_states()

    def walk_regions(self) -> Iterator["Region"]:
        """This region, then its nested regions, depth first."""
        yield self
        for el in self.elements:
            if isinstance(el, Region):
                yield from el.walk_regions()

    def _describe(self, lines: list[str], indent: int) -> None:
        """Append this region's structural dump to ``lines``."""
        pad = "  " * indent
        for el in self.elements:
            if isinstance(el, LoopRegion):
                lines.append(f"{pad}{el.trip_count_str()} [{el.schedule.value}]")
                el._describe(lines, indent + 1)
            else:
                lines.append(f"{pad}state {el.name} [{el.schedule.value}]")
                for node in el.nodes:
                    lines.append(f"{pad}  {node!r}")


class LoopRegion(Region):
    """A sequential loop ``for var in range(start, end)`` of elements."""

    def __init__(self, var: str, start: Expr, end: Expr,
                 schedule: Schedule = Schedule.CPU) -> None:
        super().__init__(schedule)
        self.var = var
        self.start = start
        self.end = end

    def trip_count_str(self) -> str:
        return f"for {self.var} in [{expr_to_str(self.start)}, {expr_to_str(self.end)})"

    def __repr__(self) -> str:
        return f"<LoopRegion {self.trip_count_str()} ({len(self.elements)} elements)>"


class SDFG:
    """Top-level program container."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.arrays: dict[str, ArrayDesc] = {}
        self.symbols: dict[str, Sym] = {}
        self.params: list[str] = []  #: scalar runtime parameters (ranks, tags)
        self.body = Region()

    # -- declarations --------------------------------------------------------------

    def add_symbol(self, name: str) -> Sym:
        sym = self.symbols.get(name)
        if sym is None:
            sym = Sym(name)
            self.symbols[name] = sym
        return sym

    def add_array(
        self,
        name: str,
        shape: tuple[Expr, ...],
        dtype: type = np.float64,
        storage: Storage = Storage.HOST,
        transient: bool = False,
    ) -> ArrayDesc:
        if name in self.arrays:
            raise ValueError(f"array {name!r} already declared")
        desc = ArrayDesc(name, shape, dtype, storage, transient)
        self.arrays[name] = desc
        return desc

    def add_param(self, name: str) -> None:
        if name not in self.params:
            self.params.append(name)

    # -- queries --------------------------------------------------------------------

    def walk_states(self) -> Iterator[State]:
        return self.body.walk_states()

    def walk_regions(self) -> Iterator[Region]:
        """All regions, including nested loop regions."""
        return self.body.walk_regions()

    def loop_regions(self) -> list[LoopRegion]:
        return [r for r in self.walk_regions() if isinstance(r, LoopRegion)]

    def describe(self) -> str:
        """Human-readable structural dump (tests & debugging)."""
        lines = [f"SDFG {self.name}"]
        for name, desc in self.arrays.items():
            shape = " x ".join(expr_to_str(s) for s in desc.shape)
            lines.append(f"  array {name}[{shape}] {desc.storage.value}"
                         + (" transient" if desc.transient else ""))
        self.body._describe(lines, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<SDFG {self.name}>"
