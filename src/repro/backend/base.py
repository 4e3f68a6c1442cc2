"""Backend-shared analysis: logical tables and their dataflow.

Both the partitioning pass (§5.5) and the TNA stage scheduler (§6.3)
view a composed pipeline as an ordered list of *logical tables*: the
user and synthesized MATs plus "action-only tables" formed from runs of
bare statements.  Each logical table carries read/write field sets
(canonical dotted names; header validity is the pseudo-field
``<hdr>.$valid``, intrinsic metadata is ``im.<field>``), which drive
dependency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BackendError
from repro.frontend import astnodes as ast
from repro.ir.printer import expr_text
from repro.ir.visitor import walk_expressions
from repro.midend.inline import ComposedPipeline


@dataclass
class LogicalTable:
    """One schedulable unit: a MAT or a run of straight-line statements."""

    name: str
    kind: str  # "match" | "statements"
    decl: Optional[ast.TableDecl] = None
    stmts: List[ast.Stmt] = field(default_factory=list)
    key_reads: Set[str] = field(default_factory=set)
    guard_reads: Set[str] = field(default_factory=set)
    action_reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    assignments: List[ast.AssignStmt] = field(default_factory=list)
    match_kinds: List[str] = field(default_factory=list)
    key_bits: int = 0
    entries: int = 0
    # Enclosing branch arms: (branch_id, arm_index) per if/switch level.
    branch_path: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def reads(self) -> Set[str]:
        return self.key_reads | self.guard_reads | self.action_reads

    def depends_on(self, earlier: "LogicalTable") -> Optional[str]:
        """Dependency of self on an earlier table, or None.

        * match dependency — the earlier table writes a field this one
          matches on (or is guarded by),
        * action dependency — the earlier table writes a field this
          one's actions *read* (RAW).

        Write-after-write and write-after-read pairs may share a stage
        under RMT's ordered-priority semantics (Bosshart et al.), which
        is how e.g. mutually exclusive IPv4/IPv6 tables that both set
        the next hop co-reside in one stage.
        """
        if self.exclusive_with(earlier):
            return None
        if earlier.writes & (self.key_reads | self.guard_reads):
            return "match"
        if earlier.writes & self.action_reads:
            return "action"
        return None

    def exclusive_with(self, other: "LogicalTable") -> bool:
        """True when the two tables sit in different arms of the same
        conditional and can therefore never both execute (bf-p4c's
        mutual-exclusion analysis lets such tables share stages)."""
        arms = dict(self.branch_path)
        for branch_id, arm in other.branch_path:
            if branch_id in arms and arms[branch_id] != arm:
                return True
        return False


# ======================================================================
# Field collection
# ======================================================================


def field_name(expr: ast.Expr) -> Optional[str]:
    """Canonical field name for a data lvalue, or None for non-data."""
    if isinstance(expr, ast.SliceExpr):
        return field_name(expr.base)
    if isinstance(expr, ast.PathExpr):
        if isinstance(expr.type, ast.ExternType):
            return None
        return expr.name
    if isinstance(expr, ast.MemberExpr):
        base = field_name(expr.base)
        if base is None:
            return None
        return f"{base}.{expr.member}"
    return None


def expr_reads(expr: ast.Expr) -> Set[str]:
    """All data fields an expression reads (validity included)."""
    reads: Set[str] = set()
    for node in walk_expressions(expr):
        if isinstance(node, ast.MethodCallExpr):
            resolved = getattr(node, "resolved", None)
            if resolved is not None and resolved[0] == "header_op":
                if resolved[1] == "isValid":
                    target = node.target
                    assert isinstance(target, ast.MemberExpr)
                    base = field_name(target.base)
                    if base is not None:
                        reads.add(f"{base}.$valid")
        elif isinstance(node, ast.MemberExpr):
            name = field_name(node)
            if name is not None and isinstance(
                node.type, (ast.BitType, ast.BoolType)
            ):
                reads.add(name)
        elif isinstance(node, ast.PathExpr):
            if isinstance(node.type, (ast.BitType, ast.BoolType)):
                decl = getattr(node, "decl", None)
                if decl is not None and getattr(decl, "kind", "") == "const":
                    continue
                reads.add(node.name)
    return reads


def stmt_effects(
    stmt: ast.Stmt, actions: Dict[str, ast.ActionDecl]
) -> Tuple[Set[str], Set[str], List[ast.AssignStmt]]:
    """(reads, writes, assignments) of one leaf statement."""
    effects = _Effects()
    effects.visit(stmt, set())
    return effects.reads, effects.writes, effects.assignments


class _Effects:
    """What :func:`stmt_effects` collects.  Methods, not nested
    closures: closures that call each other form a reference cycle, one
    only a full collection frees."""

    def __init__(self) -> None:
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.assignments: List[ast.AssignStmt] = []

    def visit(self, s: ast.Stmt, bound: Set[str]) -> None:
        if isinstance(s, ast.BlockStmt):
            for inner in s.stmts:
                self.visit(inner, bound)
        elif isinstance(s, ast.AssignStmt):
            target = field_name(s.lhs)
            if target is not None and target.split(".")[0] not in bound:
                self.writes.add(target)
            self.reads.update(
                r for r in expr_reads(s.rhs) if r.split(".")[0] not in bound
            )
            if isinstance(s.lhs, ast.SliceExpr):
                if target is not None:
                    self.reads.add(target)  # read-modify-write
            self.assignments.append(s)
        elif isinstance(s, ast.VarDeclStmt):
            if s.init is not None:
                self.reads.update(expr_reads(s.init))
                self.writes.add(s.name)
        elif isinstance(s, ast.MethodCallStmt):
            self.call(s.call, bound)
        elif isinstance(s, ast.IfStmt):
            self.reads.update(expr_reads(s.cond))
            self.visit(s.then_body, bound)
            if s.else_body is not None:
                self.visit(s.else_body, bound)
        elif isinstance(s, ast.SwitchStmt):
            self.reads.update(expr_reads(s.subject))
            for case in s.cases:
                if case.body is not None:
                    self.visit(case.body, bound)
        elif isinstance(s, (ast.EmptyStmt, ast.ReturnStmt, ast.ExitStmt)):
            pass
        else:
            raise BackendError(f"cannot analyze {type(s).__name__}")

    def call(self, call, bound: Set[str]) -> None:
        resolved = getattr(call, "resolved", None)
        if resolved is None:
            raise BackendError("unresolved call in backend analysis")
        kind = resolved[0]
        if kind == "header_op":
            target = call.target
            base = field_name(target.base)
            if base is None:
                return
            if resolved[1] in ("setValid", "setInvalid"):
                self.writes.add(f"{base}.$valid")
            else:
                self.reads.add(f"{base}.$valid")
        elif kind == "action":
            decl: ast.ActionDecl = resolved[1]
            for arg in call.args:
                self.reads.update(expr_reads(arg))
            inner_bound = bound | {p.name for p in decl.params}
            self.visit(decl.body, inner_bound)
        elif kind == "extern":
            _, extern, method = resolved
            for arg in call.args:
                self.reads.update(expr_reads(arg))
            if extern == "im_t":
                if method.startswith("set_") or method == "drop":
                    self.writes.add("im.out")
                elif method.startswith("get_"):
                    self.reads.add("im.meta")
            elif extern == "register":
                base = field_name(call.target.base)
                if base is not None:
                    if method == "write":
                        self.writes.add(f"{base}.$data")
                    else:  # read: writes its out argument, reads state
                        self.reads.add(f"{base}.$data")
                        out_arg = field_name(call.args[0]) if call.args else None
                        if out_arg is not None:
                            self.writes.add(out_arg)
            # pkt / mc_engine effects are opaque to stage scheduling.
        elif kind == "builtin":
            # recirculate(data): reads its arguments, resubmits the packet.
            for arg in call.args:
                self.reads.update(expr_reads(arg))
            self.writes.add("im.out")
        elif kind == "table":
            raise BackendError(
                "table apply inside analyzed statement run; split first"
            )
        else:
            raise BackendError(f"unhandled call kind {kind!r}")


# ======================================================================
# Logical table extraction
# ======================================================================


def _table_effects(
    decl: ast.TableDecl, actions: Dict[str, ast.ActionDecl]
) -> Tuple[Set[str], Set[str], Set[str], List[ast.AssignStmt], int]:
    key_reads: Set[str] = set()
    key_bits = 0
    for key in decl.keys:
        key_reads.update(expr_reads(key.expr))
        t = key.expr.type
        if isinstance(t, ast.BitType):
            key_bits += t.width
        elif isinstance(t, ast.BoolType):
            key_bits += 1
    action_reads: Set[str] = set()
    writes: Set[str] = set()
    assignments: List[ast.AssignStmt] = []
    names = set(decl.actions)
    if decl.default_action:
        names.add(decl.default_action)
    for aname in names:
        adecl = actions.get(aname)
        if adecl is None:
            continue
        reads, awrites, aassigns = stmt_effects(
            ast.MethodCallStmt(
                call=_fake_action_call(adecl)
            ),
            actions,
        )
        action_reads.update(reads)
        writes.update(awrites)
        assignments.extend(aassigns)
    return key_reads, action_reads, writes, assignments, key_bits


def _fake_action_call(decl: ast.ActionDecl) -> ast.MethodCallExpr:
    call = ast.MethodCallExpr(
        target=ast.PathExpr(name=decl.name),
        args=[_zero_arg(p) for p in decl.params],
    )
    call.resolved = ("action", decl)  # type: ignore[attr-defined]
    return call


def _zero_arg(param: ast.Param) -> ast.Expr:
    lit = ast.IntLit(value=0, width=None)
    lit.type = param.param_type
    return lit


def extract_logical_tables(composed: ComposedPipeline) -> List[LogicalTable]:
    """Flatten a composed pipeline into ordered logical tables.

    Derived once per program object: every target backend starts from
    the same list, and none of them edits a table it is handed."""
    return list(composed.derive("logical_tables", _logical_tables))


def _logical_tables(composed: ComposedPipeline) -> List[LogicalTable]:
    split = _Splitter(composed.actions)
    for stmt in composed.statements:
        split.visit(stmt, set(), [])
    split.flush_run()
    return split.tables


class _Splitter:
    """Cuts a statement list into logical tables: each table apply is
    one, and so is each run of other statements between two of them.
    Methods, not a nested closure that calls itself: that would hold
    itself through its cell, a cycle only a full collection frees."""

    def __init__(self, actions: Dict[str, ast.ActionDecl]) -> None:
        self.actions = actions
        self.tables: List[LogicalTable] = []
        self.run: List[ast.Stmt] = []
        self.run_guard: Set[str] = set()
        self.run_branch: List[Tuple[int, int]] = []
        self.runs = 0
        self.branches = 0

    def flush_run(self) -> None:
        if not self.run:
            return
        reads: Set[str] = set()
        writes: Set[str] = set()
        assignments: List[ast.AssignStmt] = []
        for s in self.run:
            r, w, a = stmt_effects(s, self.actions)
            reads |= r
            writes |= w
            assignments.extend(a)
        self.runs += 1
        self.tables.append(
            LogicalTable(
                name=f"stmts_{self.runs}",
                kind="statements",
                stmts=list(self.run),
                guard_reads=set(self.run_guard),
                action_reads=reads,
                writes=writes,
                assignments=assignments,
                branch_path=list(self.run_branch),
            )
        )
        self.run.clear()

    def visit(
        self, stmt: ast.Stmt, guard: Set[str], branch: List[Tuple[int, int]]
    ) -> None:
        if isinstance(stmt, ast.BlockStmt):
            for inner in stmt.stmts:
                self.visit(inner, guard, branch)
            return
        if isinstance(stmt, ast.IfStmt):
            self.flush_run()
            inner_guard = guard | expr_reads(stmt.cond)
            self.branches += 1
            bid = self.branches
            self.visit(stmt.then_body, inner_guard, branch + [(bid, 0)])
            self.flush_run()
            if stmt.else_body is not None:
                self.visit(stmt.else_body, inner_guard, branch + [(bid, 1)])
                self.flush_run()
            return
        if isinstance(stmt, ast.SwitchStmt):
            self.flush_run()
            inner_guard = guard | expr_reads(stmt.subject)
            self.branches += 1
            bid = self.branches
            for arm, case in enumerate(stmt.cases):
                if case.body is not None:
                    self.visit(case.body, inner_guard, branch + [(bid, arm)])
                    self.flush_run()
            return
        if isinstance(stmt, ast.MethodCallStmt):
            resolved = getattr(stmt.call, "resolved", None)
            if resolved is not None and resolved[0] == "table":
                self.flush_run()
                decl: ast.TableDecl = resolved[1]
                key_reads, action_reads, writes, assignments, key_bits = (
                    _table_effects(decl, self.actions)
                )
                self.tables.append(
                    LogicalTable(
                        name=decl.name,
                        kind="match",
                        decl=decl,
                        key_reads=key_reads,
                        guard_reads=set(guard),
                        action_reads=action_reads,
                        writes=writes,
                        assignments=assignments,
                        match_kinds=[k.match_kind for k in decl.keys],
                        key_bits=key_bits,
                        entries=len(decl.const_entries) + (decl.size or 0),
                        branch_path=list(branch),
                    )
                )
                return
        self.run_guard = set(guard)
        self.run_branch = list(branch)
        self.run.append(stmt)
