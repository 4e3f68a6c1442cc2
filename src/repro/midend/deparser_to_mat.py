"""Deparser → MAT homogenization (paper §5.3).

The deparser of a module becomes one MAT that copies user header fields
back into the byte stack.  Matching is on (i) which parser path ran (the
``<prefix>_path`` register set by the parser MAT) and (ii) the validity
of each emitted header, so that every entry's byte offsets are static:

* the valid headers are packed contiguously from the module's base
  offset in emit order,
* if the packed size differs from the bytes the parser originally
  extracted on that path, the tail of the stack region is shifted
  (e.g. removing a 4-byte MPLS header moves the following bytes up by
  4 — paper §5.3) and ``upa_bs_len`` is adjusted.

Identical (layout, shift) combinations share one synthesized action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import AnalysisError, ResourceError
from repro.frontend import astnodes as ast
from repro.ir.parse_graph import ParsePath
from repro.ir.printer import expr_text
from repro.midend.bytestack import ByteStack
from repro.midend.parser_to_mat import PATH_VAR_WIDTH, _int_lit, _path_lvalue

MAX_EMITTED_HEADERS = 10


@dataclass
class MatDeparser:
    """The synthesized deparser MAT for one module instance."""

    table: ast.TableDecl
    actions: Dict[str, ast.ActionDecl]
    emitted: List[ast.Expr]  # header lvalues in emit order
    # The module instance (its MatParser is ``parser_mats[prefix]``) and
    # the stack offset its first emitted byte lands on.  Entry ``i`` of
    # ``table.const_entries`` is keyed on (parser path id, validity of
    # each emitted header), in that order.
    prefix: str = ""
    base_offset: int = 0

    def apply_stmt(self) -> ast.MethodCallStmt:
        target = ast.MemberExpr(
            base=ast.PathExpr(name=self.table.name), member="apply"
        )
        call = ast.MethodCallExpr(target=target)
        call.resolved = ("table", self.table)  # type: ignore[attr-defined]
        return ast.MethodCallStmt(call=call)


def _emit_sequence(deparser: ast.ControlDecl) -> List[ast.Expr]:
    """The ordered ``emitter.emit`` header lvalues; straight-line only."""
    emits: List[ast.Expr] = []
    for stmt in deparser.apply_body.stmts:
        if isinstance(stmt, ast.EmptyStmt):
            continue
        if not isinstance(stmt, ast.MethodCallStmt):
            raise AnalysisError(
                "deparser bodies must be straight-line emit sequences",
                stmt.loc,
            )
        resolved = getattr(stmt.call, "resolved", None)
        if resolved is None or resolved[:2] != ("extern", "emitter"):
            raise AnalysisError(
                "deparser bodies may only call emitter.emit", stmt.loc
            )
        emits.append(stmt.call.args[1])
    return emits


def _isvalid_expr(hdr_lvalue: ast.Expr) -> ast.Expr:
    target = ast.MemberExpr(base=hdr_lvalue.clone(), member="isValid")
    call = ast.MethodCallExpr(target=target)
    call.resolved = ("header_op", "isValid")  # type: ignore[attr-defined]
    call.type = ast.BoolType()
    return call


def _bool_lit(value: bool) -> ast.BoolLit:
    lit = ast.BoolLit(value=value)
    lit.type = ast.BoolType()
    return lit


def deparser_to_mat(
    deparser: ast.ControlDecl,
    parser_paths: List[ParsePath],
    base_offset: int,
    bs: ByteStack,
    prefix: str,
) -> MatDeparser:
    """Transform ``deparser`` into a copy-back MAT over the byte stack."""
    emitted = _emit_sequence(deparser)
    if len(emitted) > MAX_EMITTED_HEADERS:
        raise ResourceError(
            f"deparser of {prefix!r} emits {len(emitted)} headers; "
            f"the MAT transformation supports at most {MAX_EMITTED_HEADERS}"
        )
    for e in emitted:
        if not isinstance(e.type, ast.HeaderType):
            raise AnalysisError("emit argument is not a header", e.loc)

    path_var = f"{prefix}_path"
    keys: List[ast.KeyElement] = [
        ast.KeyElement(expr=_path_lvalue(path_var), match_kind="exact")
    ]
    for hdr in emitted:
        keys.append(ast.KeyElement(expr=_isvalid_expr(hdr), match_kind="exact"))

    actions: Dict[str, ast.ActionDecl] = {}
    # Content-addressed action cache: identical layouts share an action.
    action_by_signature: Dict[Tuple, str] = {}
    entries: List[ast.TableEntry] = []

    noop_name = f"dep_{prefix}_noop"
    actions[noop_name] = ast.ActionDecl(name=noop_name, body=ast.BlockStmt())

    for path_id, path in enumerate(parser_paths, start=1):
        orig_len = path.extract_len
        for combo in itertools.product([True, False], repeat=len(emitted)):
            new_len = sum(
                hdr.type.byte_width  # type: ignore[union-attr]
                for hdr, valid in zip(emitted, combo)
                if valid
            )
            if base_offset + new_len > bs.size:
                # This validity combination cannot occur: the static
                # analysis bounds packet growth (Eq. 1), so combinations
                # overflowing the byte stack are unreachable (e.g. all
                # varbit variants valid at once).  No entry is emitted;
                # the table default (no-op) covers the impossible case.
                continue
            delta = new_len - orig_len
            layout: List[Tuple[str, int]] = []
            cursor = base_offset
            for hdr, valid in zip(emitted, combo):
                if not valid:
                    continue
                layout.append((expr_text(hdr), cursor))
                cursor += hdr.type.byte_width  # type: ignore[union-attr]
            signature = (tuple(layout), delta, base_offset + orig_len)
            action_name = action_by_signature.get(signature)
            if action_name is None:
                action_name = f"dep_{prefix}_{len(action_by_signature)}"
                action_by_signature[signature] = action_name
                actions[action_name] = _make_writeback_action(
                    action_name,
                    emitted,
                    combo,
                    base_offset,
                    orig_len,
                    delta,
                    bs,
                )
            keysets: List[ast.Expr] = [_int_lit(path_id, PATH_VAR_WIDTH)]
            keysets.extend(_bool_lit(v) for v in combo)
            entries.append(
                ast.TableEntry(
                    keysets=keysets, action_name=action_name, action_args=[]
                )
            )

    table = ast.TableDecl(
        name=f"{prefix}_deparser_tbl",
        keys=keys,
        actions=list(actions),
        default_action=noop_name,
        const_entries=entries,
    )
    return MatDeparser(
        table=table,
        actions=actions,
        emitted=emitted,
        prefix=prefix,
        base_offset=base_offset,
    )


def _make_writeback_action(
    name: str,
    emitted: List[ast.Expr],
    combo: Tuple[bool, ...],
    base_offset: int,
    orig_len: int,
    delta: int,
    bs: ByteStack,
) -> ast.ActionDecl:
    stmts: List[ast.Stmt] = []
    region_tail = base_offset + orig_len
    if delta > 0:
        # Growing: move the tail out of the way before writing headers.
        stmts.extend(bs.shift_assigns(region_tail, delta))
    cursor = base_offset
    for hdr, valid in zip(emitted, combo):
        if not valid:
            continue
        htype = hdr.type
        assert isinstance(htype, ast.HeaderType)
        stmts.extend(bs.writeback_assigns(cursor, htype, hdr))
        cursor += htype.byte_width
    if delta < 0:
        # Shrinking: headers written, now pull the tail up.
        stmts.extend(bs.shift_assigns(region_tail, delta))
    if delta != 0:
        stmts.append(bs.adjust_len_stmt(delta))
    return ast.ActionDecl(name=name, body=ast.BlockStmt(stmts=stmts))
