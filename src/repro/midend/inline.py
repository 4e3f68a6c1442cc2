"""Composition by inlining (paper §5.3, "transfer of execution control").

After homogenization every block is a MAT, so a callee invocation
(``l3_i.apply(p, im, nh, h.eth.etherType)``) can be realized by splicing
the callee's pipeline — parser MAT, control body, deparser MAT — into the
caller at the call site, with:

* the callee's packet view anchored at a **static byte-stack offset**
  (the bytes its callers consumed before invoking it),
* the callee's parameters substituted by the caller's argument
  expressions (µP4's explicit data passing), and
* every callee-local name (headers, metadata, variables, actions,
  tables) renamed under the instance's prefix so modules stay
  encapsulated.

The result is a :class:`ComposedPipeline`: a flat, MAT-only program the
backends partition onto a target and the behavioral model executes.

Monolithic P4 programs flow through :func:`compose_monolithic`, which
skips homogenization and keeps the native parser/deparser — the
comparison baseline used throughout the paper's evaluation (§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TypeVar

from repro.errors import AnalysisError, LinkError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import ProgramInfo
from repro.ir.visitor import rewrite_expressions, walk
from repro.midend.analysis import Analyzer, OperationalRegion
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.midend.bytestack import (
    BS_INSTANCE,
    BS_LEN_VAR,
    BS_LEN_WIDTH,
    PARSER_ERR_VAR,
    ByteStack,
)
from repro.midend.deparser_to_mat import MatDeparser, deparser_to_mat
from repro.midend.linker import LinkedProgram, LinkedUnit
from repro.midend.parser_to_mat import PATH_VAR_WIDTH, MatParser, parser_to_mat

T = TypeVar("T")

#: What ``ComposedPipeline.derived`` holds for a fact that is the
#: program itself.
_ITSELF = object()

PKT_VAR = "upa_pkt"
IM_VAR = "upa_im"


@dataclass
class ComposedPipeline:
    """A composed, homogenized dataplane program (µP4-IR, post-midend)."""

    name: str
    mode: str  # "micro" | "monolithic"
    region: OperationalRegion
    byte_stack: Optional[ByteStack]
    variables: Dict[str, ast.Type] = field(default_factory=dict)
    tables: Dict[str, ast.TableDecl] = field(default_factory=dict)
    actions: Dict[str, ast.ActionDecl] = field(default_factory=dict)
    statements: List[ast.Stmt] = field(default_factory=list)
    # Monolithic-only: the native parser and ordered deparser emit list.
    native_parser: Optional[ast.ParserDecl] = None
    native_emits: Optional[List[ast.Expr]] = None
    # Per-module-instance parser MATs (prefix → MatParser), for reporting.
    parser_mats: Dict[str, MatParser] = field(default_factory=dict)
    deparser_mats: Dict[str, MatDeparser] = field(default_factory=dict)
    # When the main program has user parameters (e.g. a module compiled
    # standalone for orchestration-time invocation), each is bound to a
    # synthetic pipeline variable: param name -> variable name.
    arg_vars: Dict[str, str] = field(default_factory=dict)
    # Facts derived from this program and kept with it (``derive``):
    # the executable form, the logical tables, the generated module —
    # what several consumers would each recompute from the same
    # program.  Lives and dies with the object, is not copied by
    # ``dataclasses.replace`` and is not pickled (a pool worker derives
    # its own); a pass that edits the program in place must call
    # ``invalidate_derived``.
    derived: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def byte_stack_size(self) -> int:
        return self.byte_stack.size if self.byte_stack is not None else 0

    def derive(self, key: str, build: Callable[["ComposedPipeline"], T]) -> T:
        """``build(self)``, computed once per program object.  A fact
        that is the program itself (a mono program's executable form)
        is remembered as :data:`_ITSELF`: storing the object in its own
        ``derived`` would be a cycle only a full collection frees."""
        try:
            value = self.derived[key]
        except KeyError:
            value = build(self)
            self.derived[key] = _ITSELF if value is self else value
            return value
        return self if value is _ITSELF else value  # type: ignore[return-value]

    def invalidate_derived(self) -> None:
        """Forget every derived fact: the program was edited in place."""
        self.derived.clear()

    def __getstate__(self) -> dict:
        return dict(self.__dict__, derived={})


class Composer:
    """Builds a :class:`ComposedPipeline` from a linked composition."""

    def __init__(
        self,
        linked: LinkedProgram,
        analyzer: Optional[Analyzer] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.linked = linked
        self.tracer = tracer if tracer is not None else NULL_TRACER
        analyzer = analyzer if analyzer is not None else Analyzer(linked)
        self.region = analyzer.analyze()
        self.regions = {u.name: analyzer.analyze(u) for u in linked.units()}
        self.bs = ByteStack(self.region.byte_stack_size)
        self.pipeline = ComposedPipeline(
            name=linked.main.name,
            mode="micro",
            region=self.region,
            byte_stack=self.bs,
        )

    # ------------------------------------------------------------------
    def compose(self) -> ComposedPipeline:
        p = self.pipeline
        p.variables[BS_INSTANCE] = self.bs.header_type()
        p.variables[BS_LEN_VAR] = ast.BitType(width=BS_LEN_WIDTH)
        p.variables[PARSER_ERR_VAR] = ast.BitType(width=8)
        # Bind any user parameters of the main program to synthetic
        # variables the runtime can preset/read (orchestration-time
        # invocation of a standalone module).
        bindings: Dict[str, ast.Expr] = {}
        for param in self.linked.main.program.user_params:
            var_name = f"upa_arg_{param.name}"
            p.variables[var_name] = param.param_type
            p.arg_vars[param.name] = var_name
            bindings[param.name] = _typed_path(var_name, param.param_type)
        p.statements = self._inline_unit(
            self.linked.main, base_offset=0, prefix="main", bindings=bindings
        )
        METRICS.set_gauge("compose.tables", len(p.tables))
        METRICS.set_gauge("compose.actions", len(p.actions))
        METRICS.set_gauge("compose.variables", len(p.variables))
        return p

    # ------------------------------------------------------------------
    def _inline_unit(
        self,
        unit: LinkedUnit,
        base_offset: int,
        prefix: str,
        bindings: Dict[str, ast.Expr],
    ) -> List[ast.Stmt]:
        with self.tracer.span(
            f"compose.inline.{prefix}", program=unit.name, offset=base_offset
        ):
            METRICS.inc("compose.modules_inlined")
            return self._inline_unit_body(unit, base_offset, prefix, bindings)

    def _inline_unit_body(
        self,
        unit: LinkedUnit,
        base_offset: int,
        prefix: str,
        bindings: Dict[str, ast.Expr],
    ) -> List[ast.Stmt]:
        info = unit.program
        # Step spans under ``compose.inline.<prefix>``: where inlining
        # this instance goes (callees nest their own between them).
        span, step = self.tracer.span, f"compose.inline.{prefix}"
        with span(f"{step}.clone"):
            prog = info.decl.clone()
        parser = _find_decl(prog, ast.ParserDecl, info.parser.name) if info.parser else None
        control = _find_decl(prog, ast.ControlDecl, info.control.name)
        deparser = (
            _find_decl(prog, ast.ControlDecl, info.deparser.name)
            if info.deparser
            else None
        )

        with span(f"{step}.rename"):
            renames = self._build_renames(
                info, parser, control, deparser, prefix, bindings
            )
            for decl in (parser, control, deparser):
                if decl is not None:
                    _apply_renames(decl, renames)

        stmts: List[ast.Stmt] = []
        parser_mat: Optional[MatParser] = None
        if parser is not None:
            with span(f"{step}.parser_to_mat") as sp:
                parser_mat = parser_to_mat(parser, base_offset, self.bs, prefix)
                sp.set(paths=len(parser_mat.paths))
            self._register_mat_parser(parser_mat)
            stmts.append(parser_mat.apply_stmt())

        # Locals: variables get initial-value statements; actions/tables
        # are registered; instances drive recursion.
        instances: Dict[str, ast.InstanceDecl] = {}
        for local in control.locals:
            self._register_local(local, prefix, instances, stmts)
        if parser is not None:
            for local in parser.locals:
                self._register_local(local, prefix, {}, stmts)

        callee_base: Optional[int] = None
        if parser_mat is not None:
            callee_base = parser_mat.const_extract_len
            if callee_base is not None:
                callee_base += base_offset
        else:
            callee_base = base_offset

        body = self._inline_calls(
            control.apply_body, instances, callee_base, prefix, unit
        )
        stmts.extend(body.stmts)

        if deparser is not None and parser_mat is not None:
            with span(f"{step}.deparser_to_mat") as sp:
                deparser_mat = deparser_to_mat(
                    deparser, parser_mat.paths, base_offset, self.bs, prefix
                )
                sp.set(
                    entries=len(deparser_mat.table.const_entries),
                    actions=len(deparser_mat.actions),
                )
            self._register_mat_deparser(deparser_mat)
            stmts.append(deparser_mat.apply_stmt())
        return stmts

    # ------------------------------------------------------------------
    def _register_mat_parser(self, mat: MatParser) -> None:
        p = self.pipeline
        p.tables[mat.table.name] = mat.table
        p.actions.update(mat.actions)
        p.variables[mat.path_var] = ast.BitType(width=PATH_VAR_WIDTH)
        p.parser_mats[mat.prefix] = mat

    def _register_mat_deparser(self, mat: MatDeparser) -> None:
        p = self.pipeline
        p.tables[mat.table.name] = mat.table
        p.actions.update(mat.actions)
        p.deparser_mats[mat.table.name] = mat

    def _register_local(
        self,
        local: ast.Decl,
        prefix: str,
        instances: Dict[str, ast.InstanceDecl],
        stmts: List[ast.Stmt],
    ) -> None:
        p = self.pipeline
        if isinstance(local, ast.VarLocal):
            p.variables[local.name] = local.var_type
            if local.init is not None:
                lhs = ast.PathExpr(name=local.name)
                lhs.type = local.var_type
                stmts.append(ast.AssignStmt(lhs=lhs, rhs=local.init))
        elif isinstance(local, ast.ActionDecl):
            p.actions[local.name] = local
        elif isinstance(local, ast.TableDecl):
            p.tables[local.name] = local
        elif isinstance(local, ast.InstanceDecl):
            if getattr(local, "kind", "module") == "module":
                instances[local.name] = local
            else:
                p.variables[local.name] = _extern_type_of(local)
        elif isinstance(local, ast.ConstDecl):
            pass  # folded by the checker
        else:
            raise AnalysisError(
                f"unsupported local {type(local).__name__} during inlining",
                local.loc,
            )

    # ------------------------------------------------------------------
    def _build_renames(
        self,
        info: ProgramInfo,
        parser: Optional[ast.ParserDecl],
        control: ast.ControlDecl,
        deparser: Optional[ast.ControlDecl],
        prefix: str,
        bindings: Dict[str, ast.Expr],
    ) -> Dict[str, object]:
        """Map every free name in the module to its composed meaning."""
        expr_map: Dict[str, ast.Expr] = {}
        name_map: Dict[str, str] = {}

        hdr_type = None
        meta_type = None
        if info.parser is not None:
            for p in info.parser.params:
                if p.direction == "out" and isinstance(
                    p.param_type, (ast.StructType, ast.HeaderType)
                ):
                    hdr_type = p.param_type
                elif p.direction == "inout" and isinstance(
                    p.param_type, ast.StructType
                ):
                    meta_type = p.param_type

        user_param_names = {p.name for p in info.user_params}
        for decl in (parser, control, deparser):
            if decl is None:
                continue
            for p in decl.params:
                ptype = p.param_type
                if isinstance(ptype, ast.ExternType):
                    if ptype.name == "pkt":
                        expr_map[p.name] = _typed_path(PKT_VAR, ptype)
                    elif ptype.name == "im_t":
                        expr_map[p.name] = _typed_path(IM_VAR, ptype)
                    # extractor/emitter params disappear with the MATs.
                    continue
                if hdr_type is not None and ptype is not None and _same_named(
                    ptype, hdr_type
                ):
                    expr_map[p.name] = _typed_path(f"{prefix}_hdr", ptype)
                    continue
                if meta_type is not None and ptype is not None and _same_named(
                    ptype, meta_type
                ):
                    expr_map[p.name] = _typed_path(f"{prefix}_meta", ptype)
                    continue
                if p.name in user_param_names:
                    bound = bindings.get(p.name)
                    if bound is None:
                        raise LinkError(
                            f"module {info.name!r}: user parameter {p.name!r} "
                            f"was not bound by the caller"
                        )
                    expr_map[p.name] = bound
                    continue
                # Control/deparser-only structs (e.g. a scratch struct).
                expr_map[p.name] = _typed_path(f"{prefix}_{p.name}", ptype)
                self.pipeline.variables[f"{prefix}_{p.name}"] = ptype

        if hdr_type is not None:
            self.pipeline.variables[f"{prefix}_hdr"] = hdr_type
        if meta_type is not None:
            self.pipeline.variables[f"{prefix}_meta"] = meta_type

        # Locals of parser and control.
        for decl in (parser, control):
            if decl is None:
                continue
            for local in decl.locals:
                name_map[local.name] = f"{prefix}_{local.name}"
        # Apply-body variable declarations.
        for node in walk(control.apply_body):
            if isinstance(node, ast.VarDeclStmt):
                name_map[node.name] = f"{prefix}_{node.name}"
        return {"exprs": expr_map, "names": name_map}

    # ------------------------------------------------------------------
    def _inline_calls(
        self,
        stmt: ast.Stmt,
        instances: Dict[str, ast.InstanceDecl],
        callee_base: Optional[int],
        prefix: str,
        unit: LinkedUnit,
    ) -> ast.BlockStmt:
        """Replace module applies inside ``stmt`` with callee pipelines."""

        def transform(s: ast.Stmt) -> ast.Stmt:
            if isinstance(s, ast.BlockStmt):
                s.stmts = [transform(inner) for inner in s.stmts]
                return s
            if isinstance(s, ast.IfStmt):
                s.then_body = transform(s.then_body)
                if s.else_body is not None:
                    s.else_body = transform(s.else_body)
                return s
            if isinstance(s, ast.SwitchStmt):
                for case in s.cases:
                    if case.body is not None:
                        case.body = transform(case.body)
                return s
            if isinstance(s, ast.MethodCallStmt):
                resolved = getattr(s.call, "resolved", None)
                if resolved is not None and resolved[0] == "module":
                    return self._expand_call(
                        s.call, instances, callee_base, prefix, unit
                    )
            return s

        result = transform(stmt)
        # ``transform`` refers to itself through its closure cell: a
        # cycle that would hold ``self`` — and the whole composed program
        # — until a full collection.  Break it.
        del transform
        if isinstance(result, ast.BlockStmt):
            return result
        return ast.BlockStmt(stmts=[result])

    def _expand_call(
        self,
        call: ast.MethodCallExpr,
        instances: Dict[str, ast.InstanceDecl],
        callee_base: Optional[int],
        prefix: str,
        unit: LinkedUnit,
    ) -> ast.BlockStmt:
        inst: ast.InstanceDecl = call.resolved[1]  # type: ignore[attr-defined]
        if callee_base is None:
            raise AnalysisError(
                f"program {unit.name!r} invokes {inst.target!r} but its "
                f"parser paths extract different byte counts; callee byte-"
                f"stack offsets would not be static",
                call.loc,
            )
        callee = self.linked.resolve(inst.target)
        sig = callee.program.apply_signature()
        if len(call.args) != len(sig):
            raise LinkError(
                f"{inst.target}.apply(): expected {len(sig)} args, got "
                f"{len(call.args)}",
                call.loc,
            )
        bindings: Dict[str, ast.Expr] = {}
        for arg, param in zip(call.args[2:], sig[2:]):
            bindings[param.name] = arg
        # The instance declaration was already renamed under the caller's
        # prefix, so its name is the callee's fully qualified prefix.
        stmts = self._inline_unit(callee, callee_base, inst.name, bindings)
        return ast.BlockStmt(stmts=stmts)


# ======================================================================
# Helpers
# ======================================================================


def _find_decl(prog: ast.ProgramDecl, kind: type, name: str):
    for d in prog.decls:
        if type(d) is kind and d.name == name:
            return d
    raise AnalysisError(f"program {prog.name!r} lost its {name!r} block")


def _typed_path(name: str, ptype: Optional[ast.Type]) -> ast.PathExpr:
    expr = ast.PathExpr(name=name)
    expr.type = ptype
    return expr


def _same_named(a: ast.Type, b: ast.Type) -> bool:
    return (
        isinstance(a, (ast.StructType, ast.HeaderType))
        and isinstance(b, (ast.StructType, ast.HeaderType))
        and a.name == b.name
    )


def _extern_type_of(inst: ast.InstanceDecl) -> ast.Type:
    from repro.frontend.builtins import builtin_types

    ext = builtin_types().get(inst.target)
    if isinstance(ext, ast.ExternType):
        return ext
    raise AnalysisError(f"unknown extern instantiation {inst.target!r}", inst.loc)


def _apply_renames(decl: ast.Decl, renames: Dict[str, object]) -> None:
    """Apply expression substitutions and declaration renames in place."""
    expr_map: Dict[str, ast.Expr] = renames["exprs"]  # type: ignore[assignment]
    name_map: Dict[str, str] = renames["names"]  # type: ignore[assignment]

    def repl(e: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(e, ast.PathExpr):
            if e.name in expr_map:
                return expr_map[e.name].clone()
            if e.name in name_map:
                renamed = ast.PathExpr(name=name_map[e.name])
                renamed.type = e.type
                renamed.decl = e.decl
                return renamed
        return None

    rewrite_expressions(decl, repl)

    # Rename declarations themselves and intra-table action references.
    targets = []
    if isinstance(decl, (ast.ControlDecl, ast.ParserDecl)):
        targets = decl.locals
    for local in targets:
        if local.name in name_map:
            local.original_name = local.name  # type: ignore[attr-defined]
            local.name = name_map[local.name]
        if isinstance(local, ast.TableDecl):
            local.actions = [name_map.get(a, a) for a in local.actions]
            if local.default_action is not None:
                local.default_action = name_map.get(
                    local.default_action, local.default_action
                )
            for entry in local.const_entries:
                entry.action_name = name_map.get(entry.action_name, entry.action_name)
    if isinstance(decl, (ast.ControlDecl,)):
        for node in walk(decl.apply_body):
            if isinstance(node, ast.VarDeclStmt) and node.name in name_map:
                node.name = name_map[node.name]


# ======================================================================
# Public API
# ======================================================================


def compose(
    linked: LinkedProgram,
    analyzer: Optional[Analyzer] = None,
    tracer: Optional[Tracer] = None,
) -> ComposedPipeline:
    """Compose a linked µP4 program into a flat MAT-only pipeline."""
    return Composer(linked, analyzer=analyzer, tracer=tracer).compose()


def compose_monolithic(
    linked: LinkedProgram, analyzer: Optional[Analyzer] = None
) -> ComposedPipeline:
    """Lower a monolithic P4 program without homogenization.

    The native parser and deparser are kept; only renaming to the
    composed namespace is performed.  Used as the baseline for the
    paper's resource-overhead comparisons (Tables 2 and 3).
    """
    if any(linked.main.program.instances):
        raise LinkError(
            f"program {linked.main.name!r} instantiates modules; it is not "
            f"monolithic"
        )
    analyzer = analyzer if analyzer is not None else Analyzer(linked)
    region = analyzer.analyze()
    info = linked.main.program
    prog = info.decl.clone()
    parser = _find_decl(prog, ast.ParserDecl, info.parser.name) if info.parser else None
    control = _find_decl(prog, ast.ControlDecl, info.control.name)
    deparser = (
        _find_decl(prog, ast.ControlDecl, info.deparser.name)
        if info.deparser
        else None
    )
    pipeline = ComposedPipeline(
        name=linked.main.name, mode="monolithic", region=region, byte_stack=None
    )
    composer = Composer.__new__(Composer)
    composer.linked = linked
    composer.pipeline = pipeline
    renames = composer._build_renames(
        info, parser, control, deparser, "main", {}
    )
    for decl in (parser, control, deparser):
        if decl is not None:
            _apply_renames(decl, renames)
    stmts: List[ast.Stmt] = []
    for local in control.locals:
        composer._register_local(local, "main", {}, stmts)
    if parser is not None:
        for local in parser.locals:
            composer._register_local(local, "main", {}, stmts)
    stmts.extend(control.apply_body.stmts)
    pipeline.statements = stmts
    pipeline.native_parser = parser
    if deparser is not None:
        from repro.midend.deparser_to_mat import _emit_sequence

        pipeline.native_emits = _emit_sequence(deparser)
    return pipeline
