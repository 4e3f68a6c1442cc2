"""Composition-overhead optimizations (paper §8.1).

The paper outlines optimizations to reduce the resource cost of
homogenized (de)parsers.  This pass implements the first practical
slice of them on a composed pipeline:

* **trivial parser MATs** — a module whose parser extracts nothing
  (e.g. a dispatch module like ``L3``) still gets a full MAT with a
  length guard; its only effect is setting the path register.  The MAT
  is replaced by the straight-line action body, freeing a logical table
  and its match crossbar share.
* **empty deparser MATs** — a deparser that emits nothing compiles to a
  table whose every action is a no-op; it is removed outright.
* **single-entry parser MATs** — a parser with exactly one path whose
  only guard is the packet-length check is replaced by a conditional
  around its action body (the "gateway" form targets implement for
  free), instead of occupying a match stage.

Returns statistics so ablation benches can report what was removed.
Elision removes tables, and with them ``table:`` fault sites and table
trace events, so it is opt-in (``--optimize``; DESIGN.md §17).

:func:`shrink_copies` is the other half of §8.1 and is what every
executor built by :func:`repro.targets.backends.make_pipeline` runs: a
liveness pass over the byte-stack copies homogenization inserted.  It
keeps every table, so nothing observable moves.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.frontend import astnodes as ast
from repro.ir.visitor import children
from repro.midend.bytestack import BS_INSTANCE
from repro.midend.deparser_to_mat import MatDeparser
from repro.midend.inline import ComposedPipeline
from repro.midend.parser_to_mat import MatParser
from repro.obs.metrics import METRICS


@dataclass
class OptimizationStats:
    """What the pass removed or rewrote."""

    elided_parser_mats: List[str] = field(default_factory=list)
    elided_deparser_mats: List[str] = field(default_factory=list)
    gatewayed_parser_mats: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (
            len(self.elided_parser_mats)
            + len(self.elided_deparser_mats)
            + len(self.gatewayed_parser_mats)
        )


def _table_of(stmt: ast.Stmt) -> Optional[ast.TableDecl]:
    if isinstance(stmt, ast.MethodCallStmt):
        resolved = getattr(stmt.call, "resolved", None)
        if resolved is not None and resolved[0] == "table":
            return resolved[1]
    return None


def _is_trivial_parser_mat(composed: ComposedPipeline, decl: ast.TableDecl):
    """A parser MAT with one path and no extractions: its single entry's
    action only sets the path register."""
    for prefix, mat in composed.parser_mats.items():
        if mat.table is decl:
            if len(mat.paths) == 1 and not mat.paths[0].extracts:
                return mat
            return None
    return None


def _is_single_path_parser_mat(composed: ComposedPipeline, decl: ast.TableDecl):
    for mat in composed.parser_mats.values():
        if mat.table is decl and len(mat.paths) == 1 and mat.paths[0].extracts:
            # Single path, real extraction: entry keys are just the
            # length guard (no select conditions on a one-path parser
            # unless defaults were taken).
            if len(decl.keys) == 1:
                return mat
    return None


def _is_empty_deparser_mat(composed: ComposedPipeline, decl: ast.TableDecl) -> bool:
    for mat in composed.deparser_mats.values():
        if mat.table is decl:
            return all(
                not composed.actions[name].body.stmts
                for name in decl.actions
                if name in composed.actions
            )
    return False


def _length_guard_condition(mat, bs) -> ast.Expr:
    """``upa_bs_len >= <need>`` for a single-path parser gateway."""
    need = mat.base_offset + mat.paths[0].extract_len
    lit = ast.IntLit(value=need, width=16)
    lit.type = ast.BitType(width=16)
    cond = ast.BinaryExpr(op=">=", left=bs.len_expr(), right=lit)
    cond.type = ast.BoolType()
    return cond


def _error_action_call(composed: ComposedPipeline, mat) -> List[ast.Stmt]:
    err = composed.actions.get(mat.table.default_action)
    return [s.clone() for s in err.body.stmts] if err is not None else []


class _Elider:
    """The statement walk of :func:`elide_trivial_mats`.  Methods, not
    nested closures: closures that call each other form a reference
    cycle, which would hold the program until a full collection."""

    def __init__(
        self, composed: ComposedPipeline, stats: OptimizationStats
    ) -> None:
        self.composed = composed
        self.stats = stats

    def rewrite(self, stmts: List[ast.Stmt]) -> List[ast.Stmt]:
        composed, stats = self.composed, self.stats
        out: List[ast.Stmt] = []
        for stmt in stmts:
            decl = _table_of(stmt)
            if decl is None:
                out.append(self._rewrite_nested(stmt))
                continue
            trivial = _is_trivial_parser_mat(composed, decl)
            if trivial is not None:
                # Inline the single entry's action body; the length
                # guard still applies (an empty parser accepts any
                # suffix, including the empty one, so it is vacuous).
                action = composed.actions[decl.const_entries[0].action_name]
                out.extend(s.clone() for s in action.body.stmts)
                composed.tables.pop(decl.name, None)
                stats.elided_parser_mats.append(decl.name)
                continue
            single = _is_single_path_parser_mat(composed, decl)
            if single is not None:
                action = composed.actions[decl.const_entries[0].action_name]
                guard = _length_guard_condition(single, composed.byte_stack)
                out.append(
                    ast.IfStmt(
                        cond=guard,
                        then_body=ast.BlockStmt(
                            stmts=[s.clone() for s in action.body.stmts]
                        ),
                        else_body=ast.BlockStmt(
                            stmts=_error_action_call(composed, single)
                        ),
                    )
                )
                composed.tables.pop(decl.name, None)
                stats.gatewayed_parser_mats.append(decl.name)
                continue
            if _is_empty_deparser_mat(composed, decl):
                composed.tables.pop(decl.name, None)
                stats.elided_deparser_mats.append(decl.name)
                continue
            out.append(stmt)
        return out

    def _rewrite_nested(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.BlockStmt):
            stmt.stmts = self.rewrite(stmt.stmts)
        elif isinstance(stmt, ast.IfStmt):
            stmt.then_body = self._rewrite_nested(stmt.then_body)
            if stmt.else_body is not None:
                stmt.else_body = self._rewrite_nested(stmt.else_body)
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                if case.body is not None:
                    case.body = self._rewrite_nested(case.body)
        return stmt


def elide_trivial_mats(composed: ComposedPipeline) -> OptimizationStats:
    """Apply the §8.1 MAT-elision optimizations in place."""
    stats = OptimizationStats()
    if composed.mode != "micro" or composed.byte_stack is None:
        return stats
    composed.statements = _Elider(composed, stats).rewrite(composed.statements)
    _prune_elided(composed, stats)
    composed.invalidate_derived()
    METRICS.inc("optimize.mats_elided", stats.total)
    return stats


def _prune_elided(composed: ComposedPipeline, stats: OptimizationStats) -> None:
    """Drop the MAT record and the synthesized actions of every table
    the rewrite removed: their bodies were inlined (or were empty), so
    nothing calls them, and a record without a table misleads whoever
    reads ``parser_mats`` / ``deparser_mats`` next."""
    gone = set(stats.elided_parser_mats) | set(stats.gatewayed_parser_mats)
    for prefix, mat in list(composed.parser_mats.items()):
        if mat.table.name in gone:
            del composed.parser_mats[prefix]
            for name in mat.actions:
                composed.actions.pop(name, None)
    for name in stats.elided_deparser_mats:
        mat = composed.deparser_mats.pop(name)
        for action_name in mat.actions:
            composed.actions.pop(action_name, None)


# ======================================================================
# Byte-stack liveness: identity copy-backs and never-read extractions
# ======================================================================

#: ``main_hdr.eth.dstMac`` as ``("main_hdr", "eth", "dstMac")``.  A chain
#: in a set stands for everything below it, so ``("main_hdr", "eth")``
#: covers every field of the header and ``()`` covers the program.
Chain = Tuple[str, ...]


def _chain(expr: ast.Expr) -> Optional[Chain]:
    """The variable-rooted chain ``expr`` names (a slice names the whole
    field it cuts), or ``None`` when it is not such an lvalue."""
    names: List[str] = []
    while not isinstance(expr, ast.PathExpr):
        if isinstance(expr, ast.MemberExpr):
            names.append(expr.member)
        elif not isinstance(expr, ast.SliceExpr):
            return None
        expr = expr.base
    names.append(expr.name)
    return tuple(reversed(names))


def _covered(chain: Chain, chains: Set[Chain]) -> bool:
    return any(chain[:n] in chains for n in range(len(chain) + 1))


def _bytes_to_fields(htype: ast.HeaderType) -> List[List[str]]:
    """For each byte of ``htype``, the fields with bits in it — what
    ``ByteStack.writeback_assigns`` concatenates into that byte."""
    out: List[List[str]] = [[] for _ in range(htype.byte_width)]
    bit = 0
    for fname, ftype in htype.fields:
        for byte in range(bit // 8, (bit + ftype.width + 7) // 8):
            out[byte].append(fname)
        bit += ftype.width
    return out


class _Liveness:
    """May-read / may-write chains of a composed program, flow
    insensitive, with the synthesized copies left out: a parser copy is
    the definition the analysis is about, and a deparser copy reads
    exactly the fields of the header bytes it writes, which the MAT
    record already says."""

    def __init__(self, composed: ComposedPipeline) -> None:
        self.actions = composed.actions
        self.reads: Set[Chain] = set()
        self.written: Set[Chain] = set()
        # id(cp action) -> number of leading synthesized statements.
        self.copy_prefix: Dict[int, int] = {}
        extracted_by: Dict[Chain, str] = {}
        for mat in composed.parser_mats.values():
            for entry, path in zip(mat.table.const_entries, mat.paths):
                action = composed.actions.get(entry.action_name)
                if action is not None and _is_copy_prefix(action, path):
                    self.copy_prefix[id(action)] = 1 + sum(
                        1 + len(op.header_type.fields) for op in path.extracts
                    )
                for op in path.extracts:
                    # One module extracting into another's header (an
                    # inout parameter) is a plain write to the owner.
                    chain = _chain(op.lvalue) or ()
                    if extracted_by.setdefault(chain, mat.prefix) != mat.prefix:
                        self.written.add(chain)
        deparser_actions = {
            id(composed.actions.get(name))
            for mat in composed.deparser_mats.values()
            for name in mat.actions
        }
        for var in composed.arg_vars.values():
            # Preset and read back by whoever invokes the pipeline.
            self.reads.add((var,))
            self.written.add((var,))
        for stmt in composed.statements:
            self.scan(stmt)
        for action in composed.actions.values():
            if id(action) not in deparser_actions:
                skip = self.copy_prefix.get(id(action), 0)
                for stmt in action.body.stmts[skip:]:
                    self.scan(stmt)
        for table in composed.tables.values():
            for key in table.keys:
                self.scan(key.expr)
            for arg in table.default_action_args:
                self.scan(arg)
            for entry in table.const_entries:
                for arg in entry.action_args:
                    self.scan(arg)

    def scan(self, node: ast.Node) -> None:
        if isinstance(node, ast.AssignStmt):
            self.written.add(_chain(node.lhs) or ())
            if isinstance(node.lhs, ast.SliceExpr):
                self.scan(node.lhs)  # the other bits survive the store
            self.scan(node.rhs)
            return
        if isinstance(node, (ast.PathExpr, ast.MemberExpr)):
            chain = _chain(node)
            if chain is not None:
                self.reads.add(chain)
                return
        if isinstance(node, ast.MethodCallExpr):
            resolved = getattr(node, "resolved", None) or ("?",)
            if resolved[0] == "header_op":
                if resolved[1] == "setValid":
                    self.written.add(_chain(node.target.base) or ())
                return  # validity is not a field
            for arg in self._out_args(node, resolved):
                self.written.add(_chain(arg) or ())
            for arg in node.args:
                self.scan(arg)
            return
        for child in children(node):
            self.scan(child)

    def _out_args(self, call: ast.MethodCallExpr, resolved) -> List[ast.Expr]:
        """The arguments ``call`` may store through; all of them when
        its signature is not known."""
        if resolved[0] in ("table", "builtin"):
            return []  # no arguments / arguments by value
        extern = getattr(getattr(call.target, "base", None), "type", None)
        if resolved[0] == "action":
            signatures = [self.actions.get(call.target.name, resolved[1]).params]
        elif resolved[0] == "extern" and isinstance(extern, ast.ExternType):
            signatures = [m.params for m in extern.methods.get(resolved[2], [])]
        else:
            return call.args
        return [
            arg
            for params in signatures
            if len(params) == len(call.args)
            for arg, param in zip(call.args, params)
            if param.direction in ("out", "inout")
        ]


def _is_copy_prefix(action: ast.ActionDecl, path) -> bool:
    """True iff ``action`` still opens with exactly what ``parser_to_mat``
    emitted for ``path``: the path-register store, then per extraction a
    ``setValid`` and one store per header field, in field order."""
    stmts = iter(action.body.stmts)
    if not isinstance(next(stmts, None), ast.AssignStmt):
        return False
    for op in path.extracts:
        call = next(stmts, None)
        if not (
            isinstance(call, ast.MethodCallStmt)
            and call.call.target.base == op.lvalue
        ):
            return False
        for fname, _ in op.header_type.fields:
            stmt = next(stmts, None)
            if not (
                isinstance(stmt, ast.AssignStmt)
                and isinstance(stmt.lhs, ast.MemberExpr)
                and stmt.lhs.member == fname
                and stmt.lhs.base == op.lvalue
            ):
                return False
    return True


def _clobbered_modules(composed: ComposedPipeline) -> Set[str]:
    """Prefixes of modules some of whose extracted bytes another
    module's deparser MAT may store to between their parser and their
    deparser.  A deparser MAT at ``base_offset`` stores only at or above
    it (headers from there, shifted tails above those), and ``inline``
    anchors every callee at the end of its caller's extraction, so for
    composed programs this is empty; it is checked, not assumed."""
    parsers = {m.table.name: m for m in composed.parser_mats.values()}
    clobbered: Set[str] = set()

    def visit(stmts: List[ast.Stmt], opened: Tuple[MatParser, ...]) -> None:
        for stmt in stmts:
            decl = _table_of(stmt)
            if decl is not None and decl.name in parsers:
                opened += (parsers[decl.name],)
            elif decl is not None and decl.name in composed.deparser_mats:
                dep = composed.deparser_mats[decl.name]
                for mat in opened:
                    end = mat.base_offset + max(p.extract_len for p in mat.paths)
                    if mat.prefix != dep.prefix and dep.base_offset < end:
                        clobbered.add(mat.prefix)
                opened = tuple(m for m in opened if m.prefix != dep.prefix)
            elif isinstance(stmt, ast.BlockStmt):
                visit(stmt.stmts, opened)
            elif isinstance(stmt, ast.IfStmt):
                visit([stmt.then_body, stmt.else_body], opened)
            elif isinstance(stmt, ast.SwitchStmt):
                visit([case.body for case in stmt.cases], opened)

    visit(composed.statements, ())
    del visit  # a self-referencing closure cycle, holding ``composed``
    return clobbered


def _shrink_deparser(
    mat: MatDeparser,
    parser: MatParser,
    live: _Liveness,
    clobbered: bool,
    actions: Dict[str, ast.ActionDecl],
) -> int:
    """Drop the identity copy-backs of one deparser MAT from ``actions``
    and record what the copy-backs that stay read; returns the number
    dropped."""
    users: Dict[str, List[ast.TableEntry]] = {}
    for entry in mat.table.const_entries:
        users.setdefault(entry.action_name, []).append(entry)
    dropped = 0
    for name, entries in users.items():
        action = actions[name]
        paths = [parser.paths[e.keysets[0].value - 1] for e in entries]
        valid = [
            hdr
            for hdr, lit in zip(mat.emitted, entries[0].keysets[1:])
            if lit.value
        ]
        size = sum(hdr.type.byte_width for hdr in valid)
        stmts = action.body.stmts
        # ``_make_writeback_action``: [the tail shifted down when the
        # packet grows,] one store per byte of the valid headers, [the
        # tail pulled up when it shrinks, the length adjustment].  Shifts
        # move bytes at or past the path's extraction, never header bytes.
        grows = size - paths[0].extract_len
        extra = len(stmts) - size
        first = extra - 1 if grows > 0 else 0
        window = stmts[first:first + size] if first >= 0 else []
        if (
            len(window) != size
            or (extra > 0) != (grows != 0)
            or any(p.extract_len != paths[0].extract_len for p in paths)
            or any(e.keysets[1:] != entries[0].keysets[1:] for e in entries)
            or any(
                not isinstance(stmt, ast.AssignStmt)
                or _chain(stmt.lhs) != (BS_INSTANCE, f"b{mat.base_offset + i}")
                for i, stmt in enumerate(window)
            )
        ):
            # Not the shape the record promises (this pass already cut
            # it): it stays as it is and reads every header it emits.
            live.reads.update(_chain(hdr) or () for hdr in valid)
            continue
        kept: List[ast.Stmt] = []
        cursor = mat.base_offset
        for hdr in valid:
            chain = _chain(hdr) or ()
            in_place = not clobbered and all(
                [op.offset for op in p.extracts if op.lvalue == hdr]
                == [cursor - parser.base_offset]
                for p in paths
            )
            for fields in _bytes_to_fields(hdr.type):
                stmt = window[cursor - mat.base_offset]
                cursor += 1
                touched = [chain + (f,) for f in fields]
                if in_place and not any(
                    _covered(c, live.written) for c in touched
                ):
                    dropped += 1
                else:
                    kept.append(stmt)
                    live.reads.update(touched)
        kept = stmts[:first] + kept + stmts[first + size:]
        if len(kept) != len(stmts):
            actions[name] = _with_body(action, kept)
    return dropped


def _shrink_parser(
    mat: MatParser, live: _Liveness, actions: Dict[str, ast.ActionDecl]
) -> int:
    """Drop the extractions of one parser MAT that nothing reads."""
    dropped = 0
    for entry in mat.table.const_entries:
        action = actions[entry.action_name]
        prefix = live.copy_prefix.get(id(action), 0)
        kept = [
            stmt
            for stmt in action.body.stmts[1:prefix]
            if isinstance(stmt, ast.MethodCallStmt)
            or _covered(_chain(stmt.lhs) or (), live.reads)
        ]
        if len(kept) != max(prefix - 1, 0):
            dropped += prefix - 1 - len(kept)
            stmts = action.body.stmts
            actions[entry.action_name] = _with_body(
                action, stmts[:1] + kept + stmts[prefix:]
            )
    return dropped


def _with_body(action: ast.ActionDecl, stmts: List[ast.Stmt]) -> ast.ActionDecl:
    out = copy.copy(action)
    out.body = ast.BlockStmt(loc=action.body.loc, stmts=stmts)
    return out


def action_statements(composed: ComposedPipeline) -> int:
    """Top-level statements over all action bodies — the number
    ``shrink_copies`` reduces and observability reports."""
    return sum(len(a.body.stmts) for a in composed.actions.values())


def shrink_copies(composed: ComposedPipeline) -> ComposedPipeline:
    """Remove byte-stack copies that cannot change what a packet does.

    Homogenization (§5.3) makes every parser "copy each extracted field
    out of the byte stack" and every deparser "copy all of them back".
    Two kinds of copy are dead weight, and both are decided from the
    records ``parser_to_mat`` / ``deparser_to_mat`` keep, not from
    expression text:

    1. a deparser store ``upa_bs.bK = e(fields)`` whose header was
       extracted from those very bytes on every parser path the action
       is entered for, when no field in ``e`` may be written after the
       extraction and no other deparser MAT may store to the module's
       extracted bytes in between — it puts back the byte that is there;
    2. then, a parser store ``h.f = e(upa_bs)`` when nothing in the
       program reads ``h.f`` any more.

    Tables, entries, keys and every non-copy statement are untouched, so
    table fault sites, trace events and verdicts cannot move; only the
    per-packet statement count drops.  Pure: ``composed`` is not
    modified, the result shares every unchanged node with it, and a
    program with nothing to remove is returned as is (so the pass is its
    own fixpoint).  One walk over the non-synthesized code plus one over
    the MAT records; DESIGN.md §17 has the soundness argument.
    """
    if composed.mode != "micro" or not composed.deparser_mats:
        return composed
    live = _Liveness(composed)
    clobbered = _clobbered_modules(composed)
    actions = dict(composed.actions)
    copybacks = 0
    for mat in composed.deparser_mats.values():
        parser = composed.parser_mats.get(mat.prefix)
        if parser is None:  # elided: nothing to compare the copies with
            live.reads.update(_chain(hdr) or () for hdr in mat.emitted)
            continue
        copybacks += _shrink_deparser(
            mat, parser, live, mat.prefix in clobbered, actions
        )
    extracts = sum(
        _shrink_parser(mat, live, actions)
        for mat in composed.parser_mats.values()
    )
    METRICS.inc("optimize.copybacks_elided", copybacks)
    METRICS.inc("optimize.extracts_elided", extracts)
    if not copybacks and not extracts:
        return composed

    def fresh(mat):
        return dataclasses.replace(
            mat, actions={name: actions[name] for name in mat.actions}
        )

    # Own containers for what ``elide_trivial_mats`` edits in place.
    return dataclasses.replace(
        composed,
        tables=dict(composed.tables),
        actions=actions,
        statements=list(composed.statements),
        parser_mats={k: fresh(m) for k, m in composed.parser_mats.items()},
        deparser_mats={k: fresh(m) for k, m in composed.deparser_mats.items()},
    )
