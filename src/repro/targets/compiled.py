"""Closure-compiled execution backend for composed pipelines.

The interpreter (:mod:`repro.targets.interpreter`) re-walks the annotated
AST for every packet: each statement re-dispatches on node type, each
name re-resolves through the ``Env`` chain, and each expression re-reads
its width annotations.  µP4C's whole argument is that composition work
belongs at compile time — this module extends that to *execution*: a
:class:`CompiledPipeline` translates the composed program **once** into
nested pre-bound Python closures, so per-packet work is straight calls
over a flat register file.

Build-time specialization (all resolved before the first packet):

* **AST dispatch** — every statement/expression node becomes a dedicated
  closure; no ``isinstance`` chains at runtime.
* **Name resolution** — lexical scoping is static in the composed IR
  (``Env`` frames are created exactly where blocks/actions/parsers
  nest), so every name compiles to a fixed index into ``ctx.regs``.
* **Widths and masks** — result masks, slice shifts, concat widths, and
  header pack/unpack plans (field, shift, mask) are burned into the
  closures.
* **Table keys** — key expressions compile to a closure vector; an apply
  is one fault check, one tuple build, one
  :meth:`~repro.targets.tables.TableRuntime.lookup_full`, and a dict
  dispatch to a pre-compiled action invoker.

What stays dynamic — exactly the state the interpreter also treats as
runtime state: table contents (``TableRuntime`` with its PR 2 indexes is
shared, not reimplemented), register cells, the fault plan, guards, and
per-packet intrinsic metadata.

Compatibility contract with the interpreter (the differential suite in
``tests/targets/test_compiled_equiv.py`` enforces this):

* identical verdict streams, output bytes/ports and drop reasons;
* identical :class:`~repro.obs.pkttrace.PacketTrace` event streams;
* **fault-site parity** — ``FaultPlan.trip`` draws one sample per named
  site visit, so compiled code must trip the same sites in the same
  order (table trip *before* key eval, extern trip before dispatch);
* **step parity** — every compiled statement closure counts one step
  against the same ``interp_step_budget`` guard, so a step-budget kill
  happens on exactly the same packet under either backend.

Metrics are emitted under ``compiled.*`` (``compiled.packets``,
``compiled.table_hits``/``misses``) alongside the interpreter's
``interp.*`` family.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Symbol
from repro.midend.bytestack import BS_INSTANCE, BS_LEN_VAR, PARSER_ERR_VAR
from repro.midend.inline import IM_VAR, PKT_VAR, ComposedPipeline
from repro.net.packet import Packet
from repro.obs.metrics import LATENCY_SAMPLE_EVERY, METRICS
from repro.obs.pkttrace import PacketTrace
from repro.targets.faults import (
    DEFAULT_STEP_BUDGET,
    FaultError,
    FaultPlan,
    ResourceGuards,
)
from repro.targets.interpreter import (
    ExitSignal,
    HeaderValue,
    ImState,
    McEngine,
    PktObject,
    RegisterState,
    ReturnSignal,
)
from repro.targets.pipeline import PacketOut, ParserErrorSignal
from repro.targets.plan import (
    IM_FAST,
    expr_name,
    factory_for,
    pack_plan,
    unpack_plan,
)
from repro.targets.tables import TableRuntime, table_runtimes


class _Ctx:
    """Per-packet execution context: the compiled program's only runtime
    state besides the pipeline-owned tables/registers."""

    __slots__ = (
        "regs",
        "steps",
        "step_limit",
        "faults",
        "ptrace",
        "data",
        "cursor",
        "lat_on",
        "hits",
        "misses",
    )


def _budget(ctx: _Ctx) -> None:
    """Cold path: the step counter crossed the guard."""
    raise FaultError(
        "step-budget",
        f"interpreter exceeded {ctx.step_limit} statements for one packet",
    )


class _PState:
    """One compiled parser state: its statement closures and a
    transition closure returning the next state's *name*."""

    __slots__ = ("name", "stmts", "transition")

    def __init__(self, name: str, stmts, transition) -> None:
        self.name = name
        self.stmts = stmts
        self.transition = transition


def _raising(message: str, code: Optional[str] = None) -> Callable:
    """A closure that raises a fresh ``TargetError`` whenever reached —
    used for constructs the interpreter also only rejects at *execution*
    time, so unreached dead code stays equally harmless."""

    def run(ctx, *args):
        err = TargetError(message)
        if code is not None:
            err.code = code
        raise err

    return run


def _raising_after(message: str, *operands: Callable) -> Callable:
    """Like :func:`_raising`, but evaluates ``operands`` first — the
    interpreter evaluates sub-expressions before discovering a missing
    width or an unsupported cast, and those evaluations can have visible
    effects (undefined-name errors, fault-site trips)."""

    def run(ctx, *args):
        for operand in operands:
            operand(ctx)
        raise TargetError(message)

    return run


# ======================================================================
# The compiler
# ======================================================================


class _Compiler:
    """Translates one :class:`ComposedPipeline` into closures over a
    flat register file.

    Scoping note: the interpreter creates an ``Env`` frame exactly where
    a ``BlockStmt``, action invocation, or parser frame nests, so the
    runtime environment chain mirrors the lexical structure — which
    makes every name resolvable to a static slot here.  Redeclaration in
    the *same* frame reuses the slot (``Env.define`` overwrites), while
    shadowing in a child frame gets a fresh one.
    """

    def __init__(
        self,
        composed: ComposedPipeline,
        tables: Dict[str, TableRuntime],
    ) -> None:
        self.composed = composed
        self.tables = tables
        self.nslots = 0
        self._frames: List[Dict[str, int]] = []
        self._labels: List[str] = []
        self._in_parser = False
        # (decl id, defining frame id) -> compiled action invoker.
        self._action_cache: Dict[Tuple[int, int], Callable] = {}
        # Per-packet register-file initialization, built while scanning
        # the root scope (see CompiledPipeline.process).
        self.template: List[object] = []
        self.factories: List[Tuple[int, Callable[[], object]]] = []
        self.register_slots: List[Tuple[int, str]] = []
        self.mc_slots: List[int] = []

    # ------------------------------------------------------------------
    # Scope
    # ------------------------------------------------------------------
    def _push(self, label: Optional[str] = None) -> None:
        if label is None:
            label = self._labels[-1] if self._labels else "pipeline"
        self._frames.append({})
        self._labels.append(label)

    def _pop(self) -> None:
        self._frames.pop()
        self._labels.pop()

    def _define(self, name: str) -> int:
        frame = self._frames[-1]
        slot = frame.get(name)
        if slot is None:
            slot = self.nslots
            self.nslots += 1
            self.template.append(None)
            frame[name] = slot
        return slot

    def _lookup(self, name: str) -> Optional[int]:
        for frame in reversed(self._frames):
            slot = frame.get(name)
            if slot is not None:
                return slot
        return None

    def _undefined(self, name: str, doing: str) -> Callable:
        """Same error the interpreter's ``Env`` raises on a lookup miss."""
        return _raising(
            f"{doing} undefined name {name!r} at runtime "
            f"(in {self._labels[-1]})",
            code="undefined-name",
        )

    # ------------------------------------------------------------------
    # Root scope
    # ------------------------------------------------------------------
    def build_root(self) -> None:
        """Allocate the root register file: intrinsic objects first,
        then every pipeline variable, mirroring ``_fresh_env``."""
        self._push("pipeline")
        self.im_slot = self._define(IM_VAR)
        self.pkt_slot = self._define(PKT_VAR)
        for name, vtype in self.composed.variables.items():
            slot = self._define(name)
            if isinstance(vtype, ast.ExternType) and vtype.name == "register":
                self.register_slots.append((slot, name))
                continue
            if isinstance(vtype, (ast.BitType, ast.BoolType)):
                self.template[slot] = 0 if isinstance(vtype, ast.BitType) else False
                continue
            if isinstance(vtype, ast.EnumType):
                self.template[slot] = vtype.members[0] if vtype.members else ""
                continue
            factory = factory_for(vtype)
            if isinstance(vtype, ast.ExternType):
                if vtype.name == "mc_engine":
                    self.mc_slots.append(slot)
                    self.factories.append((slot, factory))
                # Other externs default to None — already the template.
                elif vtype.name != "register":
                    self.template[slot] = None
                continue
            self.factories.append((slot, factory))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def compile_stmts(self, stmts: List[ast.Stmt]) -> Tuple[Callable, ...]:
        return tuple(self.compile_stmt(s) for s in stmts)

    def compile_stmt(self, stmt: ast.Stmt) -> Callable:
        if isinstance(stmt, ast.BlockStmt):
            self._push()
            body = self.compile_stmts(stmt.stmts)
            self._pop()

            def run_block(ctx, _body=body):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                for s in _body:
                    s(ctx)

            return run_block

        if isinstance(stmt, ast.AssignStmt):
            rhs = self.compile_expr(stmt.rhs)
            store = self.compile_store(stmt.lhs)

            def run_assign(ctx, _rhs=rhs, _store=store):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                _store(ctx, _rhs(ctx))

            return run_assign

        if isinstance(stmt, ast.VarDeclStmt):
            # The initializer is compiled (and at runtime evaluated)
            # before the name becomes visible, like the interpreter.
            if stmt.init is not None:
                init = self.compile_expr(stmt.init)
                slot = self._define(stmt.name)

                def run_decl(ctx, _init=init, _slot=slot):
                    steps = ctx.steps + 1
                    ctx.steps = steps
                    if steps > ctx.step_limit:
                        _budget(ctx)
                    ctx.regs[_slot] = _init(ctx)

                return run_decl
            factory = factory_for(stmt.var_type)
            slot = self._define(stmt.name)

            def run_decl_default(ctx, _factory=factory, _slot=slot):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                ctx.regs[_slot] = _factory()

            return run_decl_default

        if isinstance(stmt, ast.MethodCallStmt):
            call = self.compile_call(stmt.call)

            def run_call(ctx, _call=call):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                _call(ctx)

            return run_call

        if isinstance(stmt, ast.IfStmt):
            cond = self.compile_expr(stmt.cond)
            then = self.compile_stmt(stmt.then_body)
            if stmt.else_body is None:

                def run_if(ctx, _cond=cond, _then=then):
                    steps = ctx.steps + 1
                    ctx.steps = steps
                    if steps > ctx.step_limit:
                        _budget(ctx)
                    if _cond(ctx):
                        _then(ctx)

                return run_if
            other = self.compile_stmt(stmt.else_body)

            def run_if_else(ctx, _cond=cond, _then=then, _else=other):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                if _cond(ctx):
                    _then(ctx)
                else:
                    _else(ctx)

            return run_if_else

        if isinstance(stmt, ast.SwitchStmt):
            return self._compile_switch(stmt)

        if isinstance(stmt, ast.EmptyStmt):

            def run_empty(ctx):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)

            return run_empty

        if isinstance(stmt, ast.ExitStmt):

            def run_exit(ctx):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                raise ExitSignal()

            return run_exit

        if isinstance(stmt, ast.ReturnStmt):

            def run_return(ctx):
                steps = ctx.steps + 1
                ctx.steps = steps
                if steps > ctx.step_limit:
                    _budget(ctx)
                raise ReturnSignal()

            return run_return

        # Unknown statements fail on execution, after the step count,
        # exactly like Interpreter.exec_stmt's fallthrough.
        message = f"cannot execute {type(stmt).__name__}"

        def run_unknown(ctx, _message=message):
            steps = ctx.steps + 1
            ctx.steps = steps
            if steps > ctx.step_limit:
                _budget(ctx)
            raise TargetError(_message)

        return run_unknown

    def _compile_switch(self, stmt: ast.SwitchStmt) -> Callable:
        subject = self.compile_expr(stmt.subject)
        bodies = [
            self.compile_stmt(case.body) if case.body is not None else None
            for case in stmt.cases
        ]
        # Resolve fallthrough statically: a match on case i executes the
        # first compiled body at or after i.
        resolved = [
            next((b for b in bodies[i:] if b is not None), None)
            for i in range(len(bodies))
        ]
        arms = []
        for index, case in enumerate(stmt.cases):
            for keyset in case.keysets:
                matcher = (
                    None
                    if isinstance(keyset, ast.DefaultExpr)
                    else self.compile_expr(keyset)
                )
                arms.append((matcher, resolved[index]))
        arms_t = tuple(arms)

        def run_switch(ctx, _subject=subject, _arms=arms_t):
            steps = ctx.steps + 1
            ctx.steps = steps
            if steps > ctx.step_limit:
                _budget(ctx)
            value = _subject(ctx)
            for matcher, body in _arms:
                if matcher is None or matcher(ctx) == value:
                    if body is not None:
                        body(ctx)
                    return

        return run_switch

    # ------------------------------------------------------------------
    # Stores (compiled lvalues)
    # ------------------------------------------------------------------
    def compile_store(self, lhs: ast.Expr) -> Callable:
        if isinstance(lhs, ast.PathExpr):
            slot = self._lookup(lhs.name)
            if slot is None:
                return self._undefined(lhs.name, "assignment to")
            if isinstance(lhs.type, ast.BitType):
                mask = (1 << lhs.type.width) - 1

                def store_masked(ctx, value, _slot=slot, _mask=mask):
                    ctx.regs[_slot] = int(value) & _mask

                return store_masked

            def store_path(ctx, value, _slot=slot):
                ctx.regs[_slot] = value

            return store_path

        if isinstance(lhs, ast.MemberExpr):
            base = self.compile_expr(lhs.base)
            member = lhs.member
            if isinstance(lhs.type, ast.BitType):
                mask = (1 << lhs.type.width) - 1

                def store_field(ctx, value, _base=base, _m=member, _mask=mask):
                    target = _base(ctx)
                    try:
                        fields = target.fields
                    except AttributeError:
                        raise TargetError(
                            f"cannot assign member of {target!r}"
                        ) from None
                    if _m not in fields:
                        raise TargetError(f"no field {_m!r} in {target!r}")
                    fields[_m] = int(value) & _mask

                return store_field

            def store_field_raw(ctx, value, _base=base, _m=member):
                target = _base(ctx)
                try:
                    fields = target.fields
                except AttributeError:
                    raise TargetError(
                        f"cannot assign member of {target!r}"
                    ) from None
                if _m not in fields:
                    raise TargetError(f"no field {_m!r} in {target!r}")
                fields[_m] = value

            return store_field_raw

        if isinstance(lhs, ast.SliceExpr):
            current = self.compile_expr(lhs.base)
            below = self.compile_store(lhs.base)
            width = lhs.hi - lhs.lo + 1
            smask = (1 << width) - 1
            keep = ~(smask << lhs.lo)
            lo = lhs.lo

            def store_slice(
                ctx, value, _cur=current, _set=below, _keep=keep,
                _smask=smask, _lo=lo,
            ):
                updated = (int(_cur(ctx)) & _keep) | (
                    (int(value) & _smask) << _lo
                )
                _set(ctx, updated)

            return store_slice

        return _raising(f"unsupported lvalue {type(lhs).__name__}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def compile_expr(self, expr: ast.Expr) -> Callable:
        if isinstance(expr, ast.IntLit):
            value = expr.value
            return lambda ctx, _v=value: _v
        if isinstance(expr, ast.BoolLit):
            value = expr.value
            return lambda ctx, _v=value: _v
        if isinstance(expr, ast.PathExpr):
            decl = getattr(expr, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                value = decl.value
                return lambda ctx, _v=value: _v
            slot = self._lookup(expr.name)
            if slot is None:
                return self._undefined(expr.name, "read of")
            return lambda ctx, _slot=slot: ctx.regs[_slot]
        if isinstance(expr, ast.MemberExpr):
            return self._compile_member(expr)
        if isinstance(expr, ast.SliceExpr):
            base = self.compile_expr(expr.base)
            lo = expr.lo
            mask = (1 << (expr.hi - expr.lo + 1)) - 1
            return lambda ctx, _b=base, _lo=lo, _m=mask: (_b(ctx) >> _lo) & _m
        if isinstance(expr, ast.UnaryExpr):
            return self._compile_unary(expr)
        if isinstance(expr, ast.CastExpr):
            operand = self.compile_expr(expr.operand)
            if isinstance(expr.target, ast.BitType):
                mask = (1 << expr.target.width) - 1
                return lambda ctx, _o=operand, _m=mask: int(_o(ctx)) & _m
            if isinstance(expr.target, ast.BoolType):
                return lambda ctx, _o=operand: bool(_o(ctx))
            return _raising_after(f"unsupported cast to {expr.target}", operand)
        if isinstance(expr, ast.BinaryExpr):
            return self._compile_binary(expr)
        if isinstance(expr, ast.MethodCallExpr):
            return self.compile_call(expr)
        return _raising(f"cannot evaluate {type(expr).__name__}")

    def _compile_member(self, expr: ast.MemberExpr) -> Callable:
        # Enum member access evaluates to the member name, statically.
        if isinstance(expr.base, ast.PathExpr):
            decl = getattr(expr.base, "decl", None)
            if (
                isinstance(decl, Symbol)
                and decl.kind == "type"
                and isinstance(decl.type, ast.EnumType)
            ):
                member = expr.member
                return lambda ctx, _v=member: _v
        base = self.compile_expr(expr.base)
        member = expr.member

        def read_member(ctx, _base=base, _m=member):
            target = _base(ctx)
            try:
                return target.fields[_m]
            except KeyError:
                raise TargetError(f"no field {_m!r} in {target!r}") from None
            except AttributeError:
                raise TargetError(
                    f"cannot read member {_m!r} of {target!r}"
                ) from None

        return read_member

    def _compile_unary(self, expr: ast.UnaryExpr) -> Callable:
        operand = self.compile_expr(expr.operand)
        if expr.op == "!":
            return lambda ctx, _o=operand: not _o(ctx)
        t = expr.type if expr.type else expr.operand.type
        if not isinstance(t, ast.BitType):
            return _raising_after(
                f"unary has no bit width at runtime (type {t})", operand
            )
        mask = (1 << t.width) - 1
        if expr.op == "~":
            return lambda ctx, _o=operand, _m=mask: ~_o(ctx) & _m
        if expr.op == "-":
            return lambda ctx, _o=operand, _m=mask: -_o(ctx) & _m
        return _raising(f"unknown unary op {expr.op!r}")

    def _compile_binary(self, expr: ast.BinaryExpr) -> Callable:
        op = expr.op
        left = self.compile_expr(expr.left)
        right = self.compile_expr(expr.right)
        if op == "&&":
            return lambda ctx, _l=left, _r=right: bool(_l(ctx)) and bool(_r(ctx))
        if op == "||":
            return lambda ctx, _l=left, _r=right: bool(_l(ctx)) or bool(_r(ctx))
        if op == "==":
            return lambda ctx, _l=left, _r=right: _l(ctx) == _r(ctx)
        if op == "!=":
            return lambda ctx, _l=left, _r=right: _l(ctx) != _r(ctx)
        if op == "<":
            return lambda ctx, _l=left, _r=right: _l(ctx) < _r(ctx)
        if op == "<=":
            return lambda ctx, _l=left, _r=right: _l(ctx) <= _r(ctx)
        if op == ">":
            return lambda ctx, _l=left, _r=right: _l(ctx) > _r(ctx)
        if op == ">=":
            return lambda ctx, _l=left, _r=right: _l(ctx) >= _r(ctx)
        if op == "++":
            rt = expr.right.type
            if not isinstance(rt, ast.BitType):
                return _raising_after(
                    f"concat operand has no bit width at runtime (type {rt})",
                    left,
                    right,
                )
            rwidth = rt.width
            return lambda ctx, _l=left, _r=right, _w=rwidth: (
                (int(_l(ctx)) << _w) | int(_r(ctx))
            )
        if op == "&":
            return lambda ctx, _l=left, _r=right: int(_l(ctx)) & int(_r(ctx))
        if op == "|":
            return lambda ctx, _l=left, _r=right: int(_l(ctx)) | int(_r(ctx))
        if op == "^":
            return lambda ctx, _l=left, _r=right: int(_l(ctx)) ^ int(_r(ctx))
        if op == ">>":
            return lambda ctx, _l=left, _r=right: int(_l(ctx)) >> int(_r(ctx))
        if not isinstance(expr.type, ast.BitType):
            return _raising_after(
                f"result of {op!r} has no bit width at runtime "
                f"(type {expr.type})",
                left,
                right,
            )
        mask = (1 << expr.type.width) - 1
        if op == "+":
            return lambda ctx, _l=left, _r=right, _m=mask: (
                (int(_l(ctx)) + int(_r(ctx))) & _m
            )
        if op == "-":
            return lambda ctx, _l=left, _r=right, _m=mask: (
                (int(_l(ctx)) - int(_r(ctx))) & _m
            )
        if op == "*":
            return lambda ctx, _l=left, _r=right, _m=mask: (
                (int(_l(ctx)) * int(_r(ctx))) & _m
            )
        if op == "<<":
            return lambda ctx, _l=left, _r=right, _m=mask: (
                (int(_l(ctx)) << int(_r(ctx))) & _m
            )
        if op == "/":

            def div_ordered(ctx, _l=left, _r=right, _m=mask):
                lv = _l(ctx)
                rv = _r(ctx)
                if rv == 0:
                    raise TargetError("division by zero in dataplane expression")
                return (int(lv) // int(rv)) & _m

            return div_ordered
        if op == "%":

            def mod_ordered(ctx, _l=left, _r=right, _m=mask):
                lv = _l(ctx)
                rv = _r(ctx)
                if rv == 0:
                    raise TargetError("modulo by zero in dataplane expression")
                return (int(lv) % int(rv)) & _m

            return mod_ordered
        return _raising(f"unknown binary op {op!r}")

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def compile_call(self, call: ast.MethodCallExpr) -> Callable:
        resolved = getattr(call, "resolved", None)
        if resolved is None:
            return _raising("unresolved call reached the interpreter")
        kind = resolved[0]
        if kind == "header_op":
            return self._compile_header_op(call, resolved[1])
        if kind == "table":
            return self._compile_table_apply(resolved[1])
        if kind == "action":
            argcs = tuple(self.compile_expr(a) for a in call.args)
            invoker = self._compile_action_invoker(resolved[1])

            def run_action(ctx, _args=argcs, _invoke=invoker):
                _invoke(ctx, [a(ctx) for a in _args])

            return run_action
        if kind == "extern":
            return self._compile_extern(call, resolved[1], resolved[2])
        if kind == "builtin":
            return self._compile_builtin(call, resolved[1])
        if kind == "module":
            return _raising(
                "module apply survived inlining; run the composer first"
            )
        if kind == "stack_op":
            return _raising(
                "header-stack op survived lowering; run the hdr_stack pass"
            )
        return _raising(f"cannot execute call kind {kind!r}")

    def _compile_header_op(self, call: ast.MethodCallExpr, op: str) -> Callable:
        target = call.target
        assert isinstance(target, ast.MemberExpr)
        base = self.compile_expr(target.base)
        if op == "isValid":

            def is_valid(ctx, _base=base):
                header = _base(ctx)
                if isinstance(header, HeaderValue):
                    return header.valid
                raise TargetError(f"isValid on a non-header value {header!r}")

            return is_valid
        if op == "setValid":

            def set_valid(ctx, _base=base):
                header = _base(ctx)
                if isinstance(header, HeaderValue):
                    header.valid = True
                    return None
                raise TargetError(f"setValid on a non-header value {header!r}")

            return set_valid
        if op == "setInvalid":

            def set_invalid(ctx, _base=base):
                header = _base(ctx)
                if isinstance(header, HeaderValue):
                    header.valid = False
                    return None
                raise TargetError(
                    f"setInvalid on a non-header value {header!r}"
                )

            return set_invalid

        def unknown_op(ctx, _base=base, _op=op):
            header = _base(ctx)
            if not isinstance(header, HeaderValue):
                raise TargetError(f"{_op} on a non-header value {header!r}")
            raise TargetError(f"unknown header op {_op!r}")

        return unknown_op

    def _compile_table_apply(self, decl: ast.TableDecl) -> Callable:
        runtime = self.tables.get(decl.name)
        if runtime is None:
            return _raising(f"table {decl.name!r} has no runtime state")
        keys = tuple(self.compile_expr(k) for k in runtime.key_exprs)
        # Entries and the default can only name the table's own actions
        # (TableRuntime.selectable_actions); any other name raises like
        # the interpreter does.
        dispatch = {
            name: self._compile_action_invoker(adecl)
            for name, adecl in runtime.selectable_actions.items()
        }
        name = decl.name
        site = f"table:{name}"
        lookup = runtime.lookup_full
        entry_index = runtime.entry_index

        def apply_table(
            ctx,
            _name=name,
            _site=site,
            _keys=keys,
            _lookup=lookup,
            _entry_index=entry_index,
            _dispatch=dispatch,
        ):
            faults = ctx.faults
            if faults is not None and faults.trip("table", _name):
                raise FaultError(
                    "extern-fault",
                    f"injected lookup failure in table {_name!r}",
                    site=_site,
                )
            lat_on = ctx.lat_on
            if lat_on:
                t0 = _perf_counter()
            key_values = tuple(int(k(ctx)) for k in _keys)
            action_name, args, hit, entry = _lookup(key_values)
            if lat_on:
                METRICS.observe(
                    "pipeline.latency_us.lookup",
                    (_perf_counter() - t0) * 1e6,
                )
            ptrace = ctx.ptrace
            if ptrace is not None:
                ptrace.table(
                    _name,
                    key_values,
                    action_name,
                    hit,
                    entry=_entry_index(entry) if entry is not None else None,
                    const=entry.is_const if entry is not None else None,
                    args=args,
                )
            # Accumulated on the per-packet ctx and reported as two incs
            # in process() — per-table METRICS calls cost more than the
            # telemetry overhead budget allows on the compiled backend.
            if hit:
                ctx.hits += 1
            else:
                ctx.misses += 1
            if action_name != "NoAction":
                invoker = _dispatch.get(action_name)
                if invoker is None:
                    raise TargetError(
                        f"table {_name!r} selected unknown action "
                        f"{action_name!r}"
                    )
                if lat_on:
                    t0 = _perf_counter()
                invoker(ctx, args)
                if lat_on:
                    METRICS.observe(
                        "pipeline.latency_us.action",
                        (_perf_counter() - t0) * 1e6,
                    )
            return hit

        return apply_table

    def _compile_action_invoker(self, decl: ast.ActionDecl) -> Callable:
        # Memoized per (action, lexical frame): the interpreter's action
        # frame chains to the call-site environment, and since the env
        # chain mirrors lexical structure, a per-frame compile is exact.
        key = (id(decl), id(self._frames[-1]))
        cached = self._action_cache.get(key)
        if cached is not None:
            return cached
        self._push(f"action {decl.name!r}")
        slots = tuple(self._define(p.name) for p in decl.params)
        body = self.compile_stmts(decl.body.stmts)
        self._pop()
        nparams = len(decl.params)
        name = decl.name

        def invoke(ctx, args, _slots=slots, _body=body, _n=nparams, _name=name):
            if len(args) != _n:
                raise TargetError(
                    f"action {_name!r} expects {_n} args, got {len(args)}"
                )
            regs = ctx.regs
            for slot, value in zip(_slots, args):
                regs[slot] = value
            for s in _body:
                s(ctx)

        self._action_cache[key] = invoke
        return invoke

    def _compile_builtin(self, call: ast.MethodCallExpr, name: str) -> Callable:
        if name == "recirculate":
            slot = self._lookup(IM_VAR)
            if slot is None:
                return self._undefined(IM_VAR, "read of")
            argcs = tuple(self.compile_expr(a) for a in call.args)

            def recirc(ctx, _slot=slot, _args=argcs):
                im = ctx.regs[_slot]
                if isinstance(im, ImState):
                    im.recirculate_requested = True
                for a in _args:
                    a(ctx)

            return recirc
        return _raising(f"unknown builtin function {name!r}")

    # ------------------------------------------------------------------
    # Externs
    # ------------------------------------------------------------------
    def _compile_extern(
        self, call: ast.MethodCallExpr, extern: str, method: str
    ) -> Callable:
        target = call.target
        assert isinstance(target, ast.MemberExpr)
        site = f"extern:{extern}"
        fault_message = f"injected fault in extern {extern!r}.{method}"

        if extern == "extractor":
            if self._in_parser:
                return self._compile_extract(call, site, fault_message)

            def no_parser(ctx, _site=site, _msg=fault_message):
                faults = ctx.faults
                if faults is not None and faults.trip("extern", "extractor"):
                    raise FaultError("extern-fault", _msg, site=_site)
                raise TargetError(
                    "extractor.extract outside a native parser context"
                )

            return no_parser
        if extern == "emitter":

            def no_deparser(ctx, _ext=extern, _site=site, _msg=fault_message):
                faults = ctx.faults
                if faults is not None and faults.trip("extern", _ext):
                    raise FaultError("extern-fault", _msg, site=_site)
                raise TargetError(
                    "emitter.emit outside a native deparser context"
                )

            return no_deparser

        base = self.compile_expr(target.base)
        argcs = tuple(self.compile_expr(a) for a in call.args)

        def generic_body(ctx, _base=base, _args=argcs, _ext=extern, _m=method):
            obj = _base(ctx)
            args = [a(ctx) for a in _args]
            if hasattr(obj, "call"):
                return obj.call(_m, args)
            raise TargetError(f"extern instance {_ext!r} missing at runtime")

        if extern == "register" and method == "read" and len(call.args) == 2:
            index = self.compile_expr(call.args[1])
            store = self.compile_store(call.args[0])

            def reg_read(
                ctx, _base=base, _idx=index, _store=store,
                _ext=extern, _site=site, _msg=fault_message,
                _generic=generic_body,
            ):
                faults = ctx.faults
                if faults is not None and faults.trip("extern", _ext):
                    raise FaultError("extern-fault", _msg, site=_site)
                obj = _base(ctx)
                if isinstance(obj, RegisterState):
                    value = obj.cells.get(int(_idx(ctx)) % obj.size, 0)
                    _store(ctx, value)
                    return None
                return _generic(ctx)

            return reg_read

        if extern == "im_t" and method in IM_FAST and len(call.args) <= 1:
            if method == "set_out_port":
                arg0 = argcs[0]

                def im_set_out_port(
                    ctx, _base=base, _a0=arg0, _ext=extern, _site=site,
                    _msg=fault_message, _generic=generic_body,
                ):
                    faults = ctx.faults
                    if faults is not None and faults.trip("extern", _ext):
                        raise FaultError("extern-fault", _msg, site=_site)
                    im = _base(ctx)
                    if im.__class__ is ImState:
                        port = int(_a0(ctx))
                        im.out_port = port
                        if port == ImState.DROP_PORT:
                            im.dropped = True
                        return None
                    return _generic(ctx)

                return im_set_out_port
            if method == "drop":

                def im_drop(
                    ctx, _base=base, _ext=extern, _site=site,
                    _msg=fault_message, _generic=generic_body,
                ):
                    faults = ctx.faults
                    if faults is not None and faults.trip("extern", _ext):
                        raise FaultError("extern-fault", _msg, site=_site)
                    im = _base(ctx)
                    if im.__class__ is ImState:
                        im.dropped = True
                        return None
                    return _generic(ctx)

                return im_drop
            attr = "out_port" if method == "get_out_port" else "in_port"

            def im_get(
                ctx, _base=base, _attr=attr, _ext=extern, _site=site,
                _msg=fault_message, _generic=generic_body,
            ):
                faults = ctx.faults
                if faults is not None and faults.trip("extern", _ext):
                    raise FaultError("extern-fault", _msg, site=_site)
                im = _base(ctx)
                if im.__class__ is ImState:
                    return getattr(im, _attr)
                return _generic(ctx)

            return im_get

        def generic(
            ctx, _ext=extern, _site=site, _msg=fault_message,
            _body=generic_body,
        ):
            faults = ctx.faults
            if faults is not None and faults.trip("extern", _ext):
                raise FaultError("extern-fault", _msg, site=_site)
            return _body(ctx)

        return generic

    def _compile_extract(
        self, call: ast.MethodCallExpr, site: str, fault_message: str
    ) -> Callable:
        lvalue = call.args[1]
        htype = lvalue.type
        getter = self.compile_expr(lvalue)
        if not isinstance(htype, ast.HeaderType):

            def bad_target(ctx, _get=getter, _site=site, _msg=fault_message):
                faults = ctx.faults
                if faults is not None and faults.trip("extern", "extractor"):
                    raise FaultError("extern-fault", _msg, site=_site)
                _get(ctx)
                raise TargetError("extract target is not a header")

            return bad_target
        size = htype.byte_width
        plan = unpack_plan(htype)
        name = expr_name(lvalue)

        def do_extract(
            ctx, _get=getter, _size=size, _plan=plan, _name=name,
            _site=site, _msg=fault_message,
        ):
            faults = ctx.faults
            if faults is not None and faults.trip("extern", "extractor"):
                raise FaultError("extern-fault", _msg, site=_site)
            header = _get(ctx)
            if header.__class__ is not HeaderValue:
                raise TargetError("extract target is not a header")
            data = ctx.data
            cursor = ctx.cursor
            end = cursor + _size
            if end > len(data):
                raise ParserErrorSignal("truncated-extract")
            acc = int.from_bytes(data[cursor:end], "big")
            fields = header.fields
            for fname, shift, fmask in _plan:
                fields[fname] = (acc >> shift) & fmask
            header.valid = True
            ptrace = ctx.ptrace
            if ptrace is not None:
                ptrace.extract(_name, _size, offset=cursor)
            ctx.cursor = end
            return None

        return do_extract

    # ------------------------------------------------------------------
    # Native parser
    # ------------------------------------------------------------------
    def compile_parser(
        self, parser: ast.ParserDecl
    ) -> Tuple[Dict[str, _PState], Tuple[Callable, ...]]:
        """Compile all states and the parser-locals initializers.

        Returns ``(states, local_inits)``; the locals live in one shared
        frame like the interpreter's, initialized per packet before the
        ``start`` state runs.
        """
        self._in_parser = True
        self._push(f"parser {parser.name!r}")
        inits: List[Callable] = []
        for local in parser.locals:
            if not isinstance(local, ast.VarLocal):
                continue
            if local.init is not None:
                init = self.compile_expr(local.init)
                slot = self._define(local.name)

                def run_init(ctx, _init=init, _slot=slot):
                    ctx.regs[_slot] = _init(ctx)

                inits.append(run_init)
            else:
                factory = factory_for(local.var_type)
                slot = self._define(local.name)

                def run_init_default(ctx, _factory=factory, _slot=slot):
                    ctx.regs[_slot] = _factory()

                inits.append(run_init_default)
        states: Dict[str, _PState] = {}
        for state in parser.states:
            stmts = self.compile_stmts(state.stmts)
            transition = self._compile_transition(state)
            states[state.name] = _PState(state.name, stmts, transition)
        self._pop()
        self._in_parser = False
        return states, tuple(inits)

    def _compile_transition(self, state: ast.ParserState) -> Callable:
        if state.direct_next is not None:
            target = state.direct_next
            return lambda ctx, _t=target: _t
        if not state.select_exprs:
            return lambda ctx: "reject"
        subjects = tuple(self.compile_expr(e) for e in state.select_exprs)
        cases = tuple(
            (
                tuple(self._compile_keyset(ks) for ks in keysets),
                target,
            )
            for keysets, target in state.select_cases
        )

        def transition(ctx, _subjects=subjects, _cases=cases):
            values = [s(ctx) for s in _subjects]
            for matchers, target in _cases:
                for matcher, value in zip(matchers, values):
                    if matcher is not None and not matcher(ctx, value):
                        break
                else:
                    return target
            return "reject"

        return transition

    def _compile_keyset(self, keyset: ast.Expr) -> Optional[Callable]:
        """A ``(ctx, subject) -> bool`` matcher; None means always-match
        (``default`` / ``_``)."""
        if isinstance(keyset, ast.DefaultExpr):
            return None
        if isinstance(keyset, ast.MaskExpr):
            value = self.compile_expr(keyset.value)
            mask = self.compile_expr(keyset.mask)

            def match_mask(ctx, subject, _v=value, _m=mask):
                v = _v(ctx)
                m = int(_m(ctx))
                return (int(subject) & m) == (int(v) & m)

            return match_mask
        if isinstance(keyset, ast.RangeExpr):
            lo = self.compile_expr(keyset.lo)
            hi = self.compile_expr(keyset.hi)

            def match_range(ctx, subject, _lo=lo, _hi=hi):
                return int(_lo(ctx)) <= int(subject) <= int(_hi(ctx))

            return match_range
        value = self.compile_expr(keyset)

        def match_eq(ctx, subject, _v=value):
            return _v(ctx) == subject

        return match_eq


# ======================================================================
# The compiled pipeline
# ======================================================================


class CompiledPipeline:
    """Drop-in execution backend for a :class:`ComposedPipeline`,
    API-compatible with :class:`~repro.targets.pipeline.PipelineInstance`
    for everything the switch, soak harness, and control API touch:
    ``process`` / ``process_traced``, ``tables``, ``composed``,
    ``configure_faults``, ``guards`` and ``last_drop_reason``.

    Orchestration-time module invocation (``process_with`` /
    ``module_hook``) stays on the interpreter — it is control-plane
    machinery, not the per-packet fast path this backend specializes.
    """

    backend = "compiled"

    def __init__(
        self,
        composed: ComposedPipeline,
        use_table_index: bool = True,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.composed = composed
        self.tables: Dict[str, TableRuntime] = table_runtimes(
            composed, use_table_index
        )
        self.persistent: Dict[str, object] = {}
        self.last_drop_reason: Optional[str] = None
        # Packet counter driving deterministic stage-latency sampling
        # (see LATENCY_SAMPLE_EVERY); only advances while metrics are on.
        self._lat_tick = 0
        self.step_limit = DEFAULT_STEP_BUDGET
        self.faults: Optional[FaultPlan] = None
        self.guards = ResourceGuards()

        compiler = _Compiler(composed, self.tables)
        compiler.build_root()
        self._body = compiler.compile_stmts(composed.statements)
        self._pstates: Optional[Dict[str, _PState]] = None
        self._plocal_inits: Tuple[Callable, ...] = ()
        self._emits: Tuple[Tuple[Callable, str, int, tuple], ...] = ()
        if composed.mode == "micro":
            bs = composed.byte_stack
            assert bs is not None
            self._bs_slot = compiler._lookup(BS_INSTANCE)
            self._bslen_slot = compiler._lookup(BS_LEN_VAR)
            self._perr_slot = compiler._lookup(PARSER_ERR_VAR)
            self._bnames = tuple(f"b{i}" for i in range(bs.size))
            self._bs_size = bs.size
            self._extract_len = composed.region.extract_length
        else:
            if composed.native_parser is not None:
                self._pstates, self._plocal_inits = compiler.compile_parser(
                    composed.native_parser
                )
            emits = []
            for emit in composed.native_emits or []:
                getter = compiler.compile_expr(emit)
                htype = emit.type
                if isinstance(htype, ast.HeaderType):
                    plan = pack_plan(htype)
                    nbytes = htype.fixed_bit_width // 8
                else:
                    plan = ()
                    nbytes = 0
                emits.append((getter, expr_name(emit), nbytes, plan))
            self._emits = tuple(emits)

        self._template = compiler.template
        self._factories = tuple(compiler.factories)
        self._register_slots = tuple(compiler.register_slots)
        self._mc_slots = tuple(compiler.mc_slots)
        self._im_slot = compiler.im_slot
        self._pkt_slot = compiler.pkt_slot
        self.configure_faults(guards=guards, faults=faults)
        if METRICS.enabled:
            METRICS.inc("compiled.builds")
            METRICS.set_gauge("compiled.slots", compiler.nslots)

    # ------------------------------------------------------------------
    def configure_faults(
        self,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        """(Re)wire resource guards and a fault-injection plan — same
        contract as ``PipelineInstance.configure_faults``."""
        if guards is not None:
            self.guards = guards
        self.step_limit = self.guards.interp_step_budget
        self.faults = faults

    # ------------------------------------------------------------------
    def _fresh_ctx(
        self, packet: Packet, in_port: int, trace: Optional[PacketTrace]
    ) -> _Ctx:
        ctx = _Ctx()
        ctx.regs = regs = self._template[:]
        im = ImState(in_port=in_port, pkt_len=len(packet))
        regs[self._im_slot] = im
        regs[self._pkt_slot] = PktObject(packet)
        for slot, factory in self._factories:
            regs[slot] = factory()
        for slot, name in self._register_slots:
            regs[slot] = self.persistent.setdefault(name, RegisterState())
        for slot in self._mc_slots:
            value = regs[slot]
            if isinstance(value, McEngine):
                value.im = im
        ctx.steps = 0
        ctx.step_limit = self.step_limit
        ctx.faults = self.faults
        ctx.ptrace = trace
        ctx.data = packet.tobytes()
        ctx.cursor = 0
        ctx.lat_on = False
        ctx.hits = 0
        ctx.misses = 0
        return ctx

    # ------------------------------------------------------------------
    def process(
        self,
        packet: Packet,
        in_port: int = 0,
        trace: Optional[PacketTrace] = None,
    ) -> List[PacketOut]:
        """Run one packet through the compiled program; [] means dropped."""
        lat_on = False
        if METRICS.enabled:
            METRICS.inc("compiled.packets")
            tick = self._lat_tick
            self._lat_tick = tick + 1
            lat_on = tick % LATENCY_SAMPLE_EVERY == 0
        self.last_drop_reason = None
        ctx = self._fresh_ctx(packet, in_port, trace)
        ctx.lat_on = lat_on
        try:
            if self.composed.mode == "micro":
                return self._process_micro(ctx, trace)
            return self._process_monolithic(ctx, trace)
        finally:
            # Faulted packets still report the lookups they completed,
            # matching the interpreter's inline counting.
            if METRICS.enabled:
                if ctx.hits:
                    METRICS.inc("compiled.table_hits", ctx.hits)
                if ctx.misses:
                    METRICS.inc("compiled.table_misses", ctx.misses)

    def process_traced(self, packet: Packet, in_port: int = 0):
        """Convenience: run one packet with tracing on; returns
        ``(outputs, trace)``."""
        trace = PacketTrace()
        outputs = self.process(packet, in_port, trace=trace)
        return outputs, trace

    # ------------------------------------------------------------------
    def _process_micro(
        self, ctx: _Ctx, trace: Optional[PacketTrace]
    ) -> List[PacketOut]:
        regs = ctx.regs
        data = ctx.data
        lat_on = ctx.lat_on
        if lat_on:
            t0 = _perf_counter()
        extract_len = self._extract_len
        loaded = min(len(data), extract_len)
        stack = regs[self._bs_slot]
        stack.valid = True
        fields = stack.fields
        bnames = self._bnames
        for i in range(loaded):
            fields[bnames[i]] = data[i]
        regs[self._bslen_slot] = loaded
        payload = data[extract_len:]
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.parse", (_perf_counter() - t0) * 1e6
            )
        if trace is not None:
            trace.extract("byte_stack", loaded, extract_length=extract_len)

        try:
            for s in self._body:
                s(ctx)
        except (ExitSignal, ReturnSignal):
            pass

        im = regs[self._im_slot]
        if regs[self._perr_slot] == 1 or im.dropped:
            reason = (
                "parser-error" if regs[self._perr_slot] == 1 else "pipeline-drop"
            )
            self.last_drop_reason = reason
            if trace is not None:
                trace.drop(reason)
            return []
        out_len = int(regs[self._bslen_slot])
        if out_len > self._bs_size or out_len < 0:
            raise FaultError(
                "bytestack-bounds",
                f"byte-stack length {out_len} outside stack size "
                f"{self._bs_size}",
            )
        if lat_on:
            t0 = _perf_counter()
        out_bytes = bytes(map(fields.__getitem__, bnames[:out_len])) + payload
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.deparse", (_perf_counter() - t0) * 1e6
            )
        if trace is not None:
            trace.deparse(out_len, len(payload))
            trace.output(
                im.out_port,
                len(out_bytes),
                im.mcast_grp,
                im.recirculate_requested,
            )
        return [
            PacketOut(
                Packet(out_bytes),
                im.out_port,
                im.mcast_grp,
                recirculate=im.recirculate_requested,
            )
        ]

    # ------------------------------------------------------------------
    def _process_monolithic(
        self, ctx: _Ctx, trace: Optional[PacketTrace]
    ) -> List[PacketOut]:
        data = ctx.data
        lat_on = ctx.lat_on
        if self._pstates is not None:
            if lat_on:
                t0 = _perf_counter()
            try:
                self._run_parser(ctx, trace)
            except ParserErrorSignal as sig:
                self.last_drop_reason = sig.reason
                if trace is not None:
                    trace.drop(sig.reason)
                return []
            finally:
                if lat_on:
                    METRICS.observe(
                        "pipeline.latency_us.parse",
                        (_perf_counter() - t0) * 1e6,
                    )
        payload = data[ctx.cursor:]

        try:
            for s in self._body:
                s(ctx)
        except (ExitSignal, ReturnSignal):
            pass

        im = ctx.regs[self._im_slot]
        if im.dropped:
            self.last_drop_reason = "pipeline-drop"
            if trace is not None:
                trace.drop("pipeline-drop")
            return []
        if lat_on:
            t0 = _perf_counter()
        out = bytearray()
        for getter, name, nbytes, plan in self._emits:
            value = getter(ctx)
            if not isinstance(value, HeaderValue):
                raise TargetError("native emit of a non-header value")
            if not value.valid:
                continue
            acc = 0
            hfields = value.fields
            for fname, width, fmask in plan:
                acc = (acc << width) | (hfields[fname] & fmask)
            packed = acc.to_bytes(nbytes, "big")
            if trace is not None:
                trace.emit(name, len(packed))
            out.extend(packed)
        out.extend(payload)
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.deparse", (_perf_counter() - t0) * 1e6
            )
        if trace is not None:
            trace.output(
                im.out_port,
                len(out),
                im.mcast_grp,
                im.recirculate_requested,
            )
        return [
            PacketOut(
                Packet(bytes(out)),
                im.out_port,
                im.mcast_grp,
                recirculate=im.recirculate_requested,
            )
        ]

    def _run_parser(self, ctx: _Ctx, trace: Optional[PacketTrace]) -> None:
        for init in self._plocal_inits:
            init(ctx)
        states = self._pstates
        name = "start"
        for _ in range(self.guards.parser_step_budget):
            if name == "accept":
                return
            if name == "reject":
                raise ParserErrorSignal("parser-reject")
            state = states.get(name)
            if state is None:
                raise TargetError(f"parser reached unknown state {name!r}")
            if trace is not None:
                trace.parser_state(name)
            for s in state.stmts:
                s(ctx)
            name = state.transition(ctx)
        raise FaultError(
            "parse-depth",
            f"native parser exceeded its "
            f"{self.guards.parser_step_budget}-state step budget",
        )
