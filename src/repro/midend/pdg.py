"""Program Dependence Graph construction (§5.4, Ferrante et al.).

For packet-replication preprocessing, µP4C builds a PDG over the
statements of an orchestration control: nodes are leaf statements,
edges are

* *data dependences*, labeled with the variable they carry (def→use),
  where logical-extern instances (``pkt``, ``im_t``) are tracked like
  ordinary variables — a module ``apply`` both uses and redefines the
  packet instance it processes,
* *control dependences* from the statements computing a branch
  condition to the statements the branch guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.ir.visitor import walk_expressions


@dataclass
class PdgNode:
    """One leaf statement with its dataflow summary."""

    id: int
    stmt: ast.Stmt
    defs: Set[str] = field(default_factory=set)
    uses: Set[str] = field(default_factory=set)
    guard_vars: Set[str] = field(default_factory=set)
    # Extern instances: pkt instances this node initializes / processes.
    pkt_defs: Set[str] = field(default_factory=set)
    pkt_uses: Set[str] = field(default_factory=set)
    is_exit: bool = False  # out_buf.enqueue / to_in_buf
    exit_instance: Optional[str] = None

    def describe(self) -> str:
        from repro.ir.printer import print_stmt

        return print_stmt(self.stmt).strip()


@dataclass
class PdgEdge:
    src: int
    dst: int
    kind: str  # "data" | "control"
    var: str = ""


class Pdg:
    """The dependence graph."""

    def __init__(self) -> None:
        self.nodes: List[PdgNode] = []
        self.edges: List[PdgEdge] = []

    def successors(self, node_id: int) -> List[PdgEdge]:
        return [e for e in self.edges if e.src == node_id]

    def predecessors(self, node_id: int) -> List[PdgEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def exit_nodes(self) -> List[PdgNode]:
        return [n for n in self.nodes if n.is_exit]


def _instance_vars(control: ast.ControlDecl) -> Tuple[Set[str], Set[str]]:
    """(pkt-instance names, im-instance names) visible in the control."""
    pkts: Set[str] = set()
    ims: Set[str] = set()

    def classify(name: str, t: Optional[ast.Type]) -> None:
        if isinstance(t, ast.ExternType):
            if t.name == "pkt":
                pkts.add(name)
            elif t.name == "im_t":
                ims.add(name)

    for p in control.params:
        classify(p.name, p.param_type)
    for local in control.locals:
        if isinstance(local, ast.VarLocal):
            classify(local.name, local.var_type)
    return pkts, ims


def build_pdg(control: ast.ControlDecl) -> Pdg:
    """Build the PDG of an orchestration control's apply block."""
    pdg = Pdg()
    pkts, ims = _instance_vars(control)
    tracked_externs = pkts | ims
    _add_nodes(control.apply_body, set(), pdg, pkts)

    # Data edges: def -> later use (and def -> later def for ordering of
    # instance redefinitions).
    last_def: Dict[str, int] = {}
    for node in pdg.nodes:
        for var in sorted(node.uses | node.guard_vars):
            if var in last_def:
                src = last_def[var]
                if src != node.id:
                    kind = "control" if var in node.guard_vars and var not in node.uses else "data"
                    pdg.edges.append(PdgEdge(src, node.id, kind, var))
        for var in sorted(node.defs):
            if var in last_def and var in tracked_externs:
                pdg.edges.append(PdgEdge(last_def[var], node.id, "data", var))
        for var in node.defs:
            last_def[var] = node.id
    return pdg


# The walk is module-level functions, not nested closures: a closure
# that calls itself holds itself through its cell, a cycle that would
# keep the graph and its program alive until a full collection.


def _expr_vars(expr: ast.Expr) -> Set[str]:
    out: Set[str] = set()
    for node in walk_expressions(expr):
        if isinstance(node, ast.PathExpr):
            out.add(node.name)
        elif isinstance(node, ast.MemberExpr):
            root = node
            while isinstance(root, ast.MemberExpr):
                root = root.base
            if isinstance(root, ast.PathExpr):
                out.add(root.name)
    return out


def _summarize(stmt: ast.Stmt, node: PdgNode, pkts: Set[str]) -> None:
    if isinstance(stmt, ast.AssignStmt):
        lhs_root = _root(stmt.lhs)
        if lhs_root is not None:
            node.defs.add(lhs_root)
        node.uses |= _expr_vars(stmt.rhs)
    elif isinstance(stmt, ast.VarDeclStmt):
        node.defs.add(stmt.name)
        if stmt.init is not None:
            node.uses |= _expr_vars(stmt.init)
    elif isinstance(stmt, ast.MethodCallStmt):
        self_call = stmt.call
        resolved = getattr(self_call, "resolved", None)
        target = self_call.target
        args_vars = set()
        for arg in self_call.args:
            args_vars |= _expr_vars(arg)
        node.uses |= args_vars
        if resolved is None:
            raise AnalysisError("unresolved call in PDG", stmt.loc)
        kind = resolved[0]
        if kind == "extern":
            _, ext, method = resolved
            base_root = _root(target.base) if isinstance(
                target, ast.MemberExpr
            ) else None
            if base_root is not None:
                node.uses.add(base_root)
            if method == "copy_from" and base_root is not None:
                node.defs.add(base_root)
                if base_root in pkts:
                    node.pkt_defs.add(base_root)
            if ext == "im_t" and method.startswith("set_") and base_root:
                node.defs.add(base_root)
            if ext == "im_t" and method == "drop" and base_root:
                node.defs.add(base_root)
            if ext == "out_buf" and method in ("enqueue", "to_in_buf", "merge"):
                node.is_exit = True
                for arg in self_call.args:
                    root = _root(arg)
                    if root in pkts:
                        node.exit_instance = root
            for arg in self_call.args:
                root = _root(arg)
                if root in pkts:
                    node.pkt_uses.add(root)
        elif kind == "module":
            # A callee consumes and regenerates its packet argument
            # and may write every out/inout argument.
            inst: ast.InstanceDecl = resolved[1]
            if self_call.args:
                pkt_root = _root(self_call.args[0])
                if pkt_root in pkts:
                    node.pkt_uses.add(pkt_root)
                    node.pkt_defs.add(pkt_root)
                    node.defs.add(pkt_root)
            for arg in self_call.args[1:]:
                root = _root(arg)
                if root is not None:
                    node.defs.add(root)  # conservative: out/inout
        elif kind == "action":
            decl: ast.ActionDecl = resolved[1]
            from repro.backend.base import stmt_effects

            reads, writes, _ = stmt_effects(stmt, {})
            node.uses |= {r.split(".")[0] for r in reads}
            node.defs |= {w.split(".")[0] for w in writes}
        elif kind == "header_op":
            base_root = _root(target.base)
            if base_root is not None:
                node.defs.add(base_root)


def _add_nodes(
    stmt: ast.Stmt, guard_vars: Set[str], pdg: Pdg, pkts: Set[str]
) -> None:
    """Append a node per leaf statement under ``stmt`` to ``pdg``."""
    if isinstance(stmt, ast.BlockStmt):
        for inner in stmt.stmts:
            _add_nodes(inner, guard_vars, pdg, pkts)
    elif isinstance(stmt, ast.IfStmt):
        cond_vars = _expr_vars(stmt.cond)
        _add_nodes(stmt.then_body, guard_vars | cond_vars, pdg, pkts)
        if stmt.else_body is not None:
            _add_nodes(stmt.else_body, guard_vars | cond_vars, pdg, pkts)
    elif isinstance(stmt, ast.SwitchStmt):
        subject_vars = _expr_vars(stmt.subject)
        for case in stmt.cases:
            if case.body is not None:
                _add_nodes(case.body, guard_vars | subject_vars, pdg, pkts)
    elif isinstance(stmt, (ast.EmptyStmt,)):
        pass
    else:
        node = PdgNode(id=len(pdg.nodes), stmt=stmt, guard_vars=set(guard_vars))
        _summarize(stmt, node, pkts)
        pdg.nodes.append(node)


def _root(expr: ast.Expr) -> Optional[str]:
    while isinstance(expr, (ast.MemberExpr, ast.IndexExpr, ast.SliceExpr)):
        expr = expr.base
    if isinstance(expr, ast.PathExpr):
        return expr.name
    return None
