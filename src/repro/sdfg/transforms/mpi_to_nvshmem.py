"""MPIToNVSHMEM: lower host MPI nodes to GPU-initiated NVSHMEM nodes.

The conversion of §6.2.1: "Send calls are replaced with signaled
Putmem*, and Recv calls are replaced with SignalWait* nodes.  We
additionally omit global MPI barriers such as Waitall in favor of more
granular flag-based synchronization."

Matching uses SPMD symmetry.  ``my Isend(X, p, tag)`` lands in the
peer's memory at the location named by the *conjugate* receive — the
``Irecv(Y, q, tag)`` in the same program with ``q = conjugates[p]``
(e.g. what I send to my north-west neighbor, they receive from their
south-east).  The transform therefore needs the conjugate-parameter
map and rewrites each matched pair to::

    Isend(X, p, tag)  ->  PutmemSignal(dst=Y, src=X, flags[k], t, p)
    Irecv(Y, q, tag)  ->  SignalWait(flags[k], t)
    Waitall()         ->  (removed)

where ``k`` is a fresh flag per pair and ``t`` the enclosing loop
variable (the iteration semaphore of §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.memory import Storage
from repro.sdfg.graph import LoopRegion, Region, SDFG, State
from repro.sdfg.libnodes.mpi import MPIIrecv, MPIIsend, MPIWaitall
from repro.sdfg.libnodes.nvshmem import PutmemSignal, SignalWait
from repro.sdfg.nodes import AccessNode
from repro.sdfg.symbols import Sym

__all__ = ["FLAGS_ARRAY", "MPIToNVSHMEMError", "mpi_to_nvshmem"]

#: name of the symmetric signal array the transform allocates
FLAGS_ARRAY = "__nvshmem_flags"


class MPIToNVSHMEMError(ValueError):
    """An MPI node could not be lowered (unmatched send/recv)."""


@dataclass
class _Found:
    state: State
    node: MPIIsend | MPIIrecv | MPIWaitall
    region: Region
    index: int


def _scan(region: Region, loop_var: str | None, sends: list[_Found],
          recvs: list[_Found], waits: list[_Found], loops: dict[int, str]) -> None:
    """Collect ``region``'s MPI nodes, depth first, and the loop
    variable around each state that holds one.  Module-level:
    a nested recursive closure is a reference cycle that would hold
    the SDFG until a collection."""
    for index, el in enumerate(region.elements):
        if isinstance(el, LoopRegion):
            _scan(el, el.var, sends, recvs, waits, loops)
        elif isinstance(el, State):
            for node in el.library_nodes:
                found = _Found(el, node, region, index)
                if isinstance(node, MPIIsend):
                    sends.append(found)
                elif isinstance(node, MPIIrecv):
                    recvs.append(found)
                elif isinstance(node, MPIWaitall):
                    waits.append(found)
            if el.library_nodes and loop_var is not None:
                loops[id(el)] = loop_var


def mpi_to_nvshmem(
    sdfg: SDFG,
    conjugates: dict[str, str],
    *,
    nbi: bool = True,
    implementation: str = "auto",
) -> SDFG:
    """In-place lowering; ``conjugates`` maps each peer parameter to
    the opposite-direction parameter (``{"nw": "ne", "ne": "nw"}``).

    ``nbi=False`` emits blocking put variants; ``implementation``
    selects the put specialization (``"auto"`` shape dispatch or
    ``"mapped"`` per-element p, §5.3.2)."""
    for param, conj in conjugates.items():
        if conjugates.get(conj) != param:
            raise MPIToNVSHMEMError(f"conjugate map is not an involution at {param!r}")

    sends: list[_Found] = []
    recvs: list[_Found] = []
    waits: list[_Found] = []
    loops: dict[int, str] = {}
    _scan(sdfg.body, None, sends, recvs, waits, loops)

    if not sends and not recvs:
        return sdfg

    # pair sends with conjugate receives
    unmatched = list(recvs)
    flag_counter = 0
    for send in sends:
        node = send.node
        assert isinstance(node, MPIIsend)
        if isinstance(node.dest, str):
            want_source = conjugates.get(node.dest)
            if want_source is None:
                raise MPIToNVSHMEMError(f"no conjugate for peer parameter {node.dest!r}")
        else:
            want_source = node.dest  # integer peers match literally
        match = next(
            (r for r in unmatched
             if r.node.tag == node.tag and r.node.source == want_source),
            None,
        )
        if match is None:
            raise MPIToNVSHMEMError(
                f"Isend(tag={node.tag}, dest={node.dest}) has no conjugate "
                f"Irecv(source={want_source})"
            )
        unmatched.remove(match)
        loop_var = loops.get(id(send.state))
        if loop_var is None:
            raise MPIToNVSHMEMError("communication outside a time loop is unsupported")
        value = Sym(loop_var)
        flag = flag_counter
        flag_counter += 1

        # rewrite the send state: Isend -> PutmemSignal
        put = PutmemSignal(
            dst=match.node.buffer, src=node.buffer,
            flag_index=flag, signal_value=value, pe=node.dest, nbi=nbi,
            implementation=implementation,
        )
        _replace_node(send.state, node, put, keep_read=node.buffer)

        # rewrite the recv state: Irecv -> SignalWait; remember the
        # source parameter so edge ranks (PROC_NULL peers) skip the wait
        wait = SignalWait(flag_index=flag, value=value)
        wait.peer_param = match.node.source
        _replace_node(match.state, match.node, wait, keep_read=None)

    if unmatched:
        first = unmatched[0].node
        raise MPIToNVSHMEMError(
            f"Irecv(tag={first.tag}, source={first.source}) has no conjugate Isend"
        )

    # drop Waitall states entirely (granular flag sync supersedes them)
    for wait in waits:
        wait.region.elements.remove(wait.state)

    # allocate the symmetric flag array
    if flag_counter and FLAGS_ARRAY not in sdfg.arrays:
        sdfg.add_array(FLAGS_ARRAY, (flag_counter,), dtype=np.int64,
                       storage=Storage.SYMMETRIC, transient=True)
    return sdfg


def _replace_node(state: State, old, new, keep_read) -> None:
    """Swap a library node, preserving the buffer-read edge if any."""
    state.nodes = [new if n is old else n for n in state.nodes]
    new_edges = []
    for edge in state.edges:
        src = new if edge.src is old else edge.src
        dst = new if edge.dst is old else edge.dst
        if keep_read is None and (src is new or dst is new):
            continue  # waits carry no dataflow edges
        new_edges.append(type(edge)(src, dst, edge.memlet))
    state.edges = new_edges
    if keep_read is None:
        state.nodes = [n for n in state.nodes
                       if not (isinstance(n, AccessNode) and not state.in_edges(n)
                               and not state.out_edges(n))]
    state.name = state.name.replace("mpi_", "nvshmem_")
