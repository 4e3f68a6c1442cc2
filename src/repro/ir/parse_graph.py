"""Parser FSM graph construction and path enumeration.

The µP4C midend analyses the parse graph of every module (§5.2): it
enumerates the paths from ``start`` to ``accept``, computing for each the
sequence of extracted headers with their byte offsets, the select
conditions that guard the path (after forward substitution, Fig. 10b),
and the total extract length.  The longest path gives Elp(ψ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.ir.visitor import rewrite_expressions

MAX_PARSE_PATHS = 4096


@dataclass
class ExtractOp:
    """One header extraction on a parse path, at a fixed byte offset."""

    lvalue: ast.Expr
    header_type: ast.HeaderType
    offset: int  # bytes from the module's packet start

    @property
    def size(self) -> int:
        return self.header_type.byte_width


@dataclass
class PathCondition:
    """A select condition contributing to a path's match key."""

    subject: ast.Expr  # after forward substitution
    keyset: ast.Expr  # IntLit / MaskExpr / RangeExpr / DefaultExpr


@dataclass
class ParsePath:
    """One start→accept path through the parser FSM."""

    states: List[str] = field(default_factory=list)
    extracts: List[ExtractOp] = field(default_factory=list)
    conditions: List[PathCondition] = field(default_factory=list)
    assigns: List[ast.AssignStmt] = field(default_factory=list)

    @property
    def extract_len(self) -> int:
        return sum(e.size for e in self.extracts)

    def name(self) -> str:
        """Stable label for the path, used to name synthesized actions."""
        hdrs = [_lvalue_text(e.lvalue) for e in self.extracts]
        return "_".join(h.replace(".", "_") for h in hdrs) or "empty"


def _lvalue_text(expr: ast.Expr) -> str:
    if isinstance(expr, ast.PathExpr):
        return expr.name
    if isinstance(expr, ast.MemberExpr):
        return f"{_lvalue_text(expr.base)}.{expr.member}"
    if isinstance(expr, ast.IndexExpr):
        idx = expr.index.value if isinstance(expr.index, ast.IntLit) else "?"
        return f"{_lvalue_text(expr.base)}[{idx}]"
    return "<expr>"


class ParseGraph:
    """Parse graph of one parser with path enumeration."""

    def __init__(self, parser: ast.ParserDecl) -> None:
        self.parser = parser
        self.states: Dict[str, ast.ParserState] = {s.name: s for s in parser.states}
        self._paths: Optional[List[ParsePath]] = None
        self._check_acyclic()

    # ------------------------------------------------------------------
    def successors(self, state: ast.ParserState) -> List[str]:
        if state.direct_next is not None:
            return [state.direct_next]
        return [target for _, target in state.select_cases]

    # The walks are methods, not nested closures: a closure that calls
    # itself holds itself through its cell, a cycle that would keep the
    # graph and its parser alive until a full collection.
    def _check_acyclic(self) -> None:
        if self.states:
            self._visit("start", [], {})

    def _visit(self, name: str, trail: List[str], visiting: Dict[str, int]) -> None:
        """Depth-first from ``name``; ``visiting``: 0 on stack, 1 done."""
        if name in ("accept", "reject") or name not in self.states:
            return
        mark = visiting.get(name)
        if mark == 0:
            cycle = " -> ".join(trail + [name])
            raise AnalysisError(
                f"parser {self.parser.name!r} has a cycle: {cycle} "
                f"(header-stack loops must be unrolled first)"
            )
        if mark == 1:
            return
        visiting[name] = 0
        for nxt in self.successors(self.states[name]):
            self._visit(nxt, trail + [name], visiting)
        visiting[name] = 1

    # ------------------------------------------------------------------
    def paths(self) -> List[ParsePath]:
        """All start→accept paths (reject paths are dropped)."""
        if self._paths is not None:
            return self._paths
        if not self.states:
            self._paths = [ParsePath(states=["accept"])]
            return self._paths
        results: List[ParsePath] = []
        self._explore(results, "start", ["start"], [], [], [], 0, {})
        self._paths = results
        return results

    def _explore(
        self,
        results: List[ParsePath],
        name: str,
        states: List[str],
        extracts: List[ExtractOp],
        conditions: List[PathCondition],
        assigns: List[ast.AssignStmt],
        offset: int,
        env: Dict[str, ast.Expr],
    ) -> None:
        if len(results) > MAX_PARSE_PATHS:
            raise AnalysisError(
                f"parser {self.parser.name!r} exceeds {MAX_PARSE_PATHS} paths"
            )
        if name == "accept":
            results.append(
                ParsePath(
                    states=states,
                    extracts=extracts,
                    conditions=conditions,
                    assigns=assigns,
                )
            )
            return
        if name == "reject" or name not in self.states:
            return
        state = self.states[name]
        extracts = list(extracts)
        assigns = list(assigns)
        env = dict(env)
        for stmt in state.stmts:
            offset = self._apply_stmt(stmt, extracts, assigns, env, offset)
        if state.direct_next is not None:
            self._explore(
                results,
                state.direct_next,
                states + [state.direct_next],
                extracts,
                conditions,
                assigns,
                offset,
                env,
            )
            return
        if not state.select_cases:
            # No transition clause: implicit reject.
            return
        subjects = [self._substitute(e, env) for e in state.select_exprs]
        for keysets, target in state.select_cases:
            new_conditions = list(conditions)
            for subject, keyset in zip(subjects, keysets):
                if not isinstance(keyset, ast.DefaultExpr):
                    new_conditions.append(
                        PathCondition(subject=subject, keyset=keyset)
                    )
            self._explore(
                results,
                target,
                states + [target],
                extracts,
                new_conditions,
                assigns,
                offset,
                env,
            )

    # ------------------------------------------------------------------
    def _apply_stmt(
        self,
        stmt: ast.Stmt,
        extracts: List[ExtractOp],
        assigns: List[ast.AssignStmt],
        env: Dict[str, ast.Expr],
        offset: int,
    ) -> int:
        if isinstance(stmt, ast.MethodCallStmt):
            resolved = getattr(stmt.call, "resolved", None)
            if resolved is not None and resolved[:2] == ("extern", "extractor"):
                if len(stmt.call.args) != 2:
                    raise AnalysisError(
                        "variable-length extract must be lowered by the "
                        "varlen transformation before parse-graph analysis",
                        stmt.loc,
                    )
                lvalue = stmt.call.args[1]
                htype = lvalue.type
                if not isinstance(htype, ast.HeaderType):
                    raise AnalysisError("extract target is not a header", stmt.loc)
                extracts.append(
                    ExtractOp(lvalue=lvalue, header_type=htype, offset=offset)
                )
                return offset + htype.byte_width
            raise AnalysisError(
                "unsupported call in parser state (only extractor.extract)",
                stmt.loc,
            )
        if isinstance(stmt, ast.AssignStmt):
            # Forward substitution (Fig. 10b): remember local assignments so
            # later select subjects can be rewritten per path.
            substituted = self._substitute(stmt.rhs, env)
            if isinstance(stmt.lhs, ast.PathExpr):
                env[stmt.lhs.name] = substituted
            new_assign = ast.AssignStmt(loc=stmt.loc, lhs=stmt.lhs, rhs=substituted)
            assigns.append(new_assign)
            return offset
        if isinstance(stmt, (ast.EmptyStmt,)):
            return offset
        raise AnalysisError(
            f"unsupported statement in parser state: {type(stmt).__name__}",
            stmt.loc,
        )

    def _substitute(self, expr: ast.Expr, env: Dict[str, ast.Expr]) -> ast.Expr:
        if not env:
            return expr

        def repl(e: ast.Expr) -> Optional[ast.Expr]:
            if isinstance(e, ast.PathExpr) and e.name in env:
                return env[e.name].clone()
            return None

        return rewrite_expressions(expr.clone(), repl)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    @property
    def extract_length(self) -> int:
        """Elp(ψ): max bytes extracted on any accept path."""
        paths = self.paths()
        return max((p.extract_len for p in paths), default=0)

    @property
    def min_extract_length(self) -> int:
        """Fewest bytes a packet needs to be accepted."""
        paths = self.paths()
        return min((p.extract_len for p in paths), default=0)

    def extracted_header_types(self) -> List[Tuple[str, ast.HeaderType]]:
        """All distinct headers this parser may extract (lvalue text, type)."""
        seen: Dict[str, ast.HeaderType] = {}
        for path in self.paths():
            for op in path.extracts:
                seen.setdefault(_lvalue_text(op.lvalue), op.header_type)
        return list(seen.items())


def build_parse_graph(parser: ast.ParserDecl) -> ParseGraph:
    """Construct (and cycle-check) the parse graph of ``parser``."""
    return ParseGraph(parser)
