"""Header-stack lowering (paper Appendix C).

µP4 allows header stacks of compile-time-known size.  µP4C "replaces
each header stack instance with multiple instances of the header type"
and rewrites the operations:

* ``hs[i]``            → the synthesized instance ``hs_i``,
* ``hs.push_front(1)`` → ``hs_2 = hs_1; hs_1 = hs_0; hs_0.setInvalid()``
  (header copies expand to per-field assignments plus validity
  transfer),
* ``hs.pop_front(1)``  → the converse shift,
* parser loops over ``hs.next`` → the loop state is unrolled once per
  element (``lastIndex`` rewrites to the element index).

The pass rewrites the module's *source AST* and re-runs the type
checker, so downstream passes see a fully annotated stack-free program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Module, TypeChecker
from repro.ir.visitor import rewrite_expressions, walk


def _element_name(stack_field: str, index: int) -> str:
    return f"{stack_field}_{index}"


def _find_stacks(source: ast.SourceProgram) -> Dict[str, Tuple[ast.Type, int]]:
    """struct-field name -> (element type node, size) for all stacks."""
    stacks: Dict[str, Tuple[ast.Type, int]] = {}
    for decl in source.decls:
        if isinstance(decl, ast.StructDecl):
            for fname, ftype in decl.fields:
                if isinstance(ftype, ast.HeaderStackType):
                    stacks[fname] = (ftype.element, ftype.size)
    return stacks


def _element_fields(element: ast.Type, module: Module) -> List[str]:
    """Field names of a stack's element header type."""
    name = getattr(element, "name", None)
    resolved = module.types.get(name) if name else None
    if isinstance(resolved, ast.HeaderType):
        return [f for f, _ in resolved.fields]
    raise AnalysisError(f"cannot resolve stack element type {name!r}")


def has_header_stacks(source: ast.SourceProgram) -> bool:
    return bool(_find_stacks(source))


def lower_header_stacks(module: Module) -> Module:
    """Lower all header stacks; returns a freshly checked module."""
    source = module.source
    stacks = _find_stacks(source)
    if not stacks:
        return module
    source = source.clone()

    # 1. Flatten stack fields in struct declarations.
    for decl in source.decls:
        if isinstance(decl, ast.StructDecl):
            new_fields: List[Tuple[str, ast.Type]] = []
            for fname, ftype in decl.fields:
                if isinstance(ftype, ast.HeaderStackType):
                    # Types are shared values: every element field names
                    # the same element type node.
                    for i in range(ftype.size):
                        new_fields.append((_element_name(fname, i), ftype.element))
                else:
                    new_fields.append((fname, ftype))
            decl.fields = new_fields

    # 2. Rewrite expressions and statements everywhere.
    for decl in source.decls:
        _rewrite_decl(decl, stacks, module)

    checked = TypeChecker(source, module.name).check()
    return checked


def _rewrite_decl(decl: ast.Decl, stacks, module: Module) -> None:
    if isinstance(decl, ast.ProgramDecl):
        for inner in decl.decls:
            _rewrite_decl(inner, stacks, module)
        return
    if isinstance(decl, ast.ParserDecl):
        _unroll_parser(decl, stacks, module)
        for state in decl.states:
            for stmt in state.stmts:
                _rewrite_indexing(stmt, stacks)
            for exprs in (state.select_exprs,):
                for i, e in enumerate(exprs):
                    exprs[i] = _rewrite_indexing_expr(e, stacks)
        return
    if isinstance(decl, ast.ControlDecl):
        decl.apply_body = _rewrite_stmt(decl.apply_body, stacks, module)
        for local in decl.locals:
            if isinstance(local, ast.ActionDecl):
                local.body = _rewrite_stmt(local.body, stacks, module)
            elif isinstance(local, ast.TableDecl):
                for key in local.keys:
                    key.expr = _rewrite_indexing_expr(key.expr, stacks)
        return


# ----------------------------------------------------------------------
# Expression rewriting: hs[i] -> hs_i
# ----------------------------------------------------------------------


def _stack_member(expr: ast.Expr, stacks) -> Optional[Tuple[ast.Expr, str]]:
    """If expr is ``<base>.<stackfield>``, return (base, field)."""
    if isinstance(expr, ast.MemberExpr) and expr.member in stacks:
        return expr.base, expr.member
    return None


def _rewrite_indexing_expr(expr: ast.Expr, stacks) -> ast.Expr:
    def repl(e: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(e, ast.IndexExpr):
            hit = _stack_member(e.base, stacks)
            if hit is None:
                return None
            if not isinstance(e.index, ast.IntLit):
                raise AnalysisError(
                    "header-stack index must be a compile-time constant "
                    "after loop unrolling",
                    e.loc,
                )
            base, fname = hit
            _, size = stacks[fname]
            if not (0 <= e.index.value < size):
                raise AnalysisError(
                    f"stack index {e.index.value} out of range [0, {size})",
                    e.loc,
                )
            return ast.MemberExpr(
                loc=e.loc,
                base=base.clone(),
                member=_element_name(fname, e.index.value),
            )
        return None

    return rewrite_expressions(expr, repl)  # type: ignore[return-value]


def _rewrite_indexing(stmt: ast.Stmt, stacks) -> None:
    def repl(e: ast.Expr) -> Optional[ast.Expr]:
        return None

    rewrite_expressions(stmt, lambda e: None)  # ensure structure walked
    # Reuse expression rewriting through the statement fields directly.
    if isinstance(stmt, ast.AssignStmt):
        stmt.lhs = _rewrite_indexing_expr(stmt.lhs, stacks)
        stmt.rhs = _rewrite_indexing_expr(stmt.rhs, stacks)
    elif isinstance(stmt, ast.MethodCallStmt):
        stmt.call = _rewrite_indexing_expr(stmt.call, stacks)  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statement rewriting: push_front / pop_front, plus indexing
# ----------------------------------------------------------------------


def _rewrite_stmt(stmt: ast.Stmt, stacks, module: Module) -> ast.Stmt:
    if isinstance(stmt, ast.BlockStmt):
        new_stmts: List[ast.Stmt] = []
        for inner in stmt.stmts:
            rewritten = _rewrite_stmt(inner, stacks, module)
            if isinstance(rewritten, ast.BlockStmt) and getattr(
                rewritten, "_splice", False
            ):
                new_stmts.extend(rewritten.stmts)
            else:
                new_stmts.append(rewritten)
        stmt.stmts = new_stmts
        return stmt
    if isinstance(stmt, ast.IfStmt):
        stmt.cond = _rewrite_indexing_expr(stmt.cond, stacks)
        stmt.then_body = _rewrite_stmt(stmt.then_body, stacks, module)
        if stmt.else_body is not None:
            stmt.else_body = _rewrite_stmt(stmt.else_body, stacks, module)
        return stmt
    if isinstance(stmt, ast.SwitchStmt):
        stmt.subject = _rewrite_indexing_expr(stmt.subject, stacks)
        for case in stmt.cases:
            if case.body is not None:
                case.body = _rewrite_stmt(case.body, stacks, module)
        return stmt
    if isinstance(stmt, ast.MethodCallStmt):
        expanded = _expand_stack_op(stmt, stacks, module)
        if expanded is not None:
            return expanded
        stmt.call = _rewrite_indexing_expr(stmt.call, stacks)  # type: ignore[assignment]
        return stmt
    if isinstance(stmt, ast.AssignStmt):
        stmt.lhs = _rewrite_indexing_expr(stmt.lhs, stacks)
        stmt.rhs = _rewrite_indexing_expr(stmt.rhs, stacks)
        return stmt
    return stmt


def _expand_stack_op(stmt: ast.MethodCallStmt, stacks, module: Module) -> Optional[ast.BlockStmt]:
    call = stmt.call
    if not isinstance(call.target, ast.MemberExpr):
        return None
    op = call.target.member
    if op not in ("push_front", "pop_front"):
        return None
    hit = _stack_member(call.target.base, stacks)
    if hit is None:
        return None
    base, fname = hit
    element_type, size = stacks[fname]
    fields = _element_fields(element_type, module)
    if len(call.args) != 1 or not isinstance(call.args[0], ast.IntLit):
        raise AnalysisError(f"{op} needs a constant argument", stmt.loc)
    count = call.args[0].value
    stmts: List[ast.Stmt] = []

    def elem(i: int) -> ast.MemberExpr:
        return ast.MemberExpr(base=base.clone(), member=_element_name(fname, i))

    if op == "push_front":
        # hs_{n-1} = hs_{n-1-count} ... then invalidate the new front.
        for i in reversed(range(count, size)):
            stmts.append(_copy_header(elem(i), elem(i - count), fields))
        for i in range(min(count, size)):
            stmts.append(_validity_stmt(elem(i), valid=False))
    else:  # pop_front
        for i in range(size - count):
            stmts.append(_copy_header(elem(i), elem(i + count), fields))
        for i in range(max(size - count, 0), size):
            stmts.append(_validity_stmt(elem(i), valid=False))
    block = ast.BlockStmt(loc=stmt.loc, stmts=stmts)
    block._splice = True  # type: ignore[attr-defined]
    return block


def _copy_header(dst: ast.Expr, src: ast.Expr, fields: List[str]) -> ast.Stmt:
    """``dst = src`` for headers: validity transfer plus field copies."""
    copies: List[ast.Stmt] = [_validity_stmt(dst.clone(), valid=True)]
    for fname in fields:
        copies.append(
            ast.AssignStmt(
                lhs=ast.MemberExpr(base=dst.clone(), member=fname),
                rhs=ast.MemberExpr(base=src.clone(), member=fname),
            )
        )
    is_valid = ast.MethodCallExpr(
        target=ast.MemberExpr(base=src.clone(), member="isValid")
    )
    return ast.IfStmt(
        cond=is_valid,
        then_body=ast.BlockStmt(stmts=copies),
        else_body=ast.BlockStmt(stmts=[_validity_stmt(dst.clone(), valid=False)]),
    )


def _validity_stmt(target: ast.Expr, valid: bool) -> ast.Stmt:
    call = ast.MethodCallExpr(
        target=ast.MemberExpr(base=target, member="setValid" if valid else "setInvalid"),
    )
    return ast.MethodCallStmt(call=call)


# ----------------------------------------------------------------------
# Parser loop unrolling
# ----------------------------------------------------------------------


def _unroll_parser(parser: ast.ParserDecl, stacks, module: Module) -> None:
    """Unroll self-loop states extracting ``hs.next``."""
    new_states: List[ast.ParserState] = []
    for state in parser.states:
        loop_field = _next_extract_field(state, stacks)
        if loop_field is None:
            new_states.append(state)
            continue
        base, fname = loop_field
        _, size = stacks[fname]
        for i in range(size):
            clone = state.clone()
            clone.name = state.name if i == 0 else f"{state.name}_u{i}"
            _replace_next(clone, base, fname, i)
            # Retarget the self-loop to the next unrolled copy; the last
            # copy turns the loop edge into reject (stack overflow).
            next_name = f"{state.name}_u{i + 1}" if i + 1 < size else "reject"
            _retarget(clone, state.name, next_name)
            new_states.append(clone)
    parser.states = new_states


def _next_extract_field(state: ast.ParserState, stacks):
    for stmt in state.stmts:
        if isinstance(stmt, ast.MethodCallStmt):
            call = stmt.call
            if (
                isinstance(call.target, ast.MemberExpr)
                and call.target.member == "extract"
                and len(call.args) == 2
            ):
                arg = call.args[1]
                if isinstance(arg, ast.MemberExpr) and arg.member == "next":
                    hit = _stack_member(arg.base, stacks)
                    if hit is not None:
                        return hit
    return None


def _replace_next(state: ast.ParserState, base: ast.Expr, fname: str, index: int):
    def repl(e: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(e, ast.MemberExpr) and e.member in ("next", "last"):
            inner = _stack_member(e.base, {fname: None})
            if inner is not None and inner[1] == fname:
                element = index if e.member == "next" else max(index - 1, 0)
                return ast.MemberExpr(
                    base=inner[0].clone(), member=_element_name(fname, element)
                )
        if isinstance(e, ast.MemberExpr) and e.member == "lastIndex":
            inner = _stack_member(e.base, {fname: None})
            if inner is not None:
                lit = ast.IntLit(value=index, width=32)
                return lit
        return None

    for stmt in state.stmts:
        rewrite_expressions(stmt, repl)
    state.select_exprs = [
        rewrite_expressions(e, repl) for e in state.select_exprs  # type: ignore[misc]
    ]


def _retarget(state: ast.ParserState, old: str, new: str) -> None:
    if state.direct_next == old:
        state.direct_next = new
    state.select_cases = [
        (keysets, new if target == old else target)
        for keysets, target in state.select_cases
    ]
