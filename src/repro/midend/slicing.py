"""Packet slices and the packet-processing schedule (§5.4, Appendix C).

For programs that process several packet instances at once (compile-time
replication via ``pkt.copy_from``), µP4C:

1. computes a *packet slice* per instance — the executable subset of
   the PDG affecting that instance's value in its access range (a
   backward traversal from the instance's exit points that follows
   scalar data and control dependences but does not cross into other
   instances' packet lineage),
2. extracts a *thread* per instance by dropping method calls that
   process other instances (their results arrive through inter-thread
   dependences),
3. classifies statements shared by several slices as *CPS nodes*,
4. builds the Packet-Processing Schedule (PPS) graph and checks it is
   serializable: a strongly connected component may contain at most one
   thread (a directed cycle through two threads means the target would
   have to process two copies of the packet simultaneously — rejected,
   exactly as the appendix prescribes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.midend.pdg import Pdg, PdgNode, build_pdg


@dataclass
class PacketSlice:
    """Executable PDG subset affecting one pkt instance."""

    instance: str
    node_ids: Set[int] = field(default_factory=set)


@dataclass
class Thread:
    """Per-instance processing thread (PPS node)."""

    instance: str
    node_ids: Set[int] = field(default_factory=set)


@dataclass
class PpsGraph:
    """The packet-processing schedule."""

    threads: Dict[str, Thread] = field(default_factory=dict)
    cps_nodes: Set[int] = field(default_factory=set)
    # (src thread-or-"cps:<id>", dst ...) dependency edges.
    edges: List[tuple] = field(default_factory=list)

    def thread_order(self) -> List[str]:
        """A topological order of threads (serial execution schedule)."""
        names = list(self.threads)
        deps: Dict[str, Set[str]] = {n: set() for n in names}
        for src, dst in self.edges:
            if src in deps and dst in deps and src != dst:
                deps[dst].add(src)
        order: List[str] = []
        remaining = set(names)
        while remaining:
            ready = sorted(
                n for n in remaining if not (deps[n] & remaining)
            )
            if not ready:
                raise AnalysisError("PPS has an unresolvable thread cycle")
            # Preserve program order among simultaneously ready threads.
            ready.sort(key=names.index)
            current = ready[0]
            order.append(current)
            remaining.discard(current)
        return order


# ----------------------------------------------------------------------
# Slices
# ----------------------------------------------------------------------


def compute_slices(pdg: Pdg, instances: List[str]) -> Dict[str, PacketSlice]:
    """One packet slice per pkt instance (Fig. 13)."""
    slices: Dict[str, PacketSlice] = {}
    for instance in instances:
        slices[instance] = _slice_for(pdg, instance, set(instances))
    return slices


def _slice_for(pdg: Pdg, instance: str, all_instances: Set[str]) -> PacketSlice:
    other_instances = all_instances - {instance}
    # Seeds: exit points of this instance plus every node touching it.
    seeds = [
        n.id
        for n in pdg.nodes
        if (n.is_exit and n.exit_instance == instance)
        or instance in (n.pkt_uses | n.pkt_defs)
    ]
    visited: Set[int] = set()
    work = list(seeds)
    while work:
        node_id = work.pop()
        if node_id in visited:
            continue
        visited.add(node_id)
        for edge in pdg.predecessors(node_id):
            if edge.var in other_instances:
                # Do not cross into another instance's packet lineage —
                # that's an inter-thread dependency, not part of this
                # slice (Fig. 13: slice 1 includes test.apply but not
                # pt.copy_from).
                continue
            work.append(edge.src)
    return PacketSlice(instance=instance, node_ids=visited)


# ----------------------------------------------------------------------
# Threads + PPS
# ----------------------------------------------------------------------


def build_pps(pdg: Pdg, slices: Dict[str, PacketSlice]) -> PpsGraph:
    """Extract threads, classify CPS nodes, build and check the PPS."""
    pps = PpsGraph()
    membership: Dict[int, List[str]] = {}
    for instance, pslice in slices.items():
        for node_id in pslice.node_ids:
            membership.setdefault(node_id, []).append(instance)

    owner: Dict[int, str] = {}  # node -> thread name or "" for CPS
    for node in pdg.nodes:
        owners = membership.get(node.id, [])
        touched = node.pkt_uses | node.pkt_defs
        if touched:
            # A method call processing instance X belongs to X's thread
            # even if other slices include it.
            if len(touched) == 1:
                owner[node.id] = next(iter(touched))
            else:
                # e.g. pm.copy_from(p): the *defined* instance owns it.
                defs = node.pkt_defs
                owner[node.id] = next(iter(defs)) if defs else sorted(touched)[0]
        elif len(owners) == 1:
            owner[node.id] = owners[0]
        elif len(owners) > 1:
            owner[node.id] = ""  # CPS: shared computation
        else:
            owner[node.id] = ""  # unrelated statement: schedule freely

    for instance in slices:
        pps.threads[instance] = Thread(instance=instance)
    for node_id, name in owner.items():
        if name:
            pps.threads.setdefault(name, Thread(instance=name))
            pps.threads[name].node_ids.add(node_id)
        else:
            pps.cps_nodes.add(node_id)

    # Dependency edges between PPS nodes.
    def pps_name(node_id: int) -> str:
        name = owner.get(node_id, "")
        return name if name else f"cps:{node_id}"

    seen: Set[tuple] = set()
    for edge in pdg.edges:
        src, dst = pps_name(edge.src), pps_name(edge.dst)
        if src != dst and (src, dst) not in seen:
            seen.add((src, dst))
            pps.edges.append((src, dst))

    _check_serializable(pps)
    return pps


class _Tarjan:
    """Tarjan's strongly connected components over ``adjacency``.  A
    class, not a closure that calls itself: that would hold itself
    through its cell, a cycle only a full collection frees."""

    def __init__(self, adjacency: Dict[str, List[str]]) -> None:
        self.adjacency = adjacency
        self.index: Dict[str, int] = {}
        self.lowlink: Dict[str, int] = {}
        self.on_stack: Dict[str, bool] = {}
        self.stack: List[str] = []
        self.sccs: List[List[str]] = []

    def strongconnect(self, v: str) -> None:
        index, lowlink, stack = self.index, self.lowlink, self.stack
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        self.on_stack[v] = True
        for w in self.adjacency[v]:
            if w not in index:
                self.strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif self.on_stack.get(w):
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            component: List[str] = []
            while True:
                w = stack.pop()
                self.on_stack[w] = False
                component.append(w)
                if w == v:
                    break
            self.sccs.append(component)


def _check_serializable(pps: PpsGraph) -> None:
    """Reject PPS graphs whose SCCs contain more than one thread."""
    names = list(pps.threads) + [f"cps:{i}" for i in pps.cps_nodes]
    adjacency: Dict[str, List[str]] = {n: [] for n in names}
    for src, dst in pps.edges:
        if src in adjacency and dst in adjacency:
            adjacency[src].append(dst)
    tarjan = _Tarjan(adjacency)
    for name in names:
        if name not in tarjan.index:
            tarjan.strongconnect(name)
    for component in tarjan.sccs:
        thread_members = [n for n in component if not n.startswith("cps:")]
        if len(thread_members) > 1:
            raise AnalysisError(
                "PPS is not serializable: packet threads "
                f"{thread_members} form a dependency cycle; the target "
                "cannot process multiple copies of a packet simultaneously"
            )


# ----------------------------------------------------------------------
# Public entry
# ----------------------------------------------------------------------


@dataclass
class ReplicationPlan:
    """Everything §5.4 computes for one orchestration control."""

    pdg: Pdg
    slices: Dict[str, PacketSlice]
    pps: PpsGraph

    def schedule(self) -> List[str]:
        return self.pps.thread_order()


def plan_replication(control: ast.ControlDecl) -> ReplicationPlan:
    """Compute slices, threads and the PPS for an orchestration control."""
    pdg = build_pdg(control)
    pkt_instances = sorted(
        {n for node in pdg.nodes for n in (node.pkt_uses | node.pkt_defs)}
    )
    slices = compute_slices(pdg, pkt_instances)
    pps = build_pps(pdg, slices)
    return ReplicationPlan(pdg=pdg, slices=slices, pps=pps)
