"""Expression/statement interpreter for composed pipelines.

Evaluates the annotated AST directly, with P4 value semantics: ``bit<W>``
values wrap modulo 2^W, headers carry a validity bit, and table applies
consult the :class:`~repro.targets.tables.TableRuntime` state installed
through the control API.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Symbol
from repro.obs.metrics import METRICS
from repro.obs.pkttrace import PacketTrace
from repro.targets.faults import DEFAULT_STEP_BUDGET, FaultError, FaultPlan
from repro.targets.tables import TableRuntime


class ExitSignal(Exception):
    """Raised by ``exit``: terminates pipeline processing."""


class ReturnSignal(Exception):
    """Raised by ``return``: terminates the current block."""


class HeaderValue:
    """Runtime value of a header instance."""

    __slots__ = ("fields", "valid")

    def __init__(self, header_type: ast.HeaderType) -> None:
        self.fields: Dict[str, int] = {name: 0 for name, _ in header_type.fields}
        self.valid = False

    def __repr__(self) -> str:
        state = "valid" if self.valid else "invalid"
        return f"HeaderValue({state}, {self.fields})"


class StructValue:
    """Runtime value of a struct instance."""

    __slots__ = ("fields",)

    def __init__(self, struct_type: ast.StructType) -> None:
        self.fields: Dict[str, object] = {
            name: default_value(ftype) for name, ftype in struct_type.fields
        }

    def __repr__(self) -> str:
        return f"StructValue({self.fields})"


class ImState:
    """The ``im_t`` logical extern: intrinsic metadata for one packet."""

    DROP_PORT = 0xFF

    def __init__(self, in_port: int = 0, pkt_len: int = 0) -> None:
        self.in_port = in_port
        self.out_port = 0
        self.dropped = False
        self.mcast_grp = 0
        self.pkt_len = pkt_len
        self.in_timestamp = 0
        self.out_timestamp = 0
        self.queue_depth = 0
        self.deq_timestamp = 0
        self.enq_timestamp = 0
        self.instance_type = 0
        self.recirculate_requested = False

    def call(self, method: str, args: List[object]) -> object:
        if method == "set_out_port":
            self.out_port = int(args[0])  # type: ignore[arg-type]
            if self.out_port == self.DROP_PORT:
                self.dropped = True
            return None
        if method == "get_out_port":
            return self.out_port
        if method == "get_in_port":
            return self.in_port
        if method == "drop":
            self.dropped = True
            return None
        if method == "copy_from":
            other = args[0]
            if isinstance(other, ImState):
                self.__dict__.update(
                    {k: v for k, v in other.__dict__.items()}
                )
            return None
        if method == "get_value":
            return self._get_value(str(args[0]))
        raise TargetError(f"im_t has no method {method!r}")

    def _get_value(self, field: str) -> int:
        mapping = {
            "IN_TIMESTAMP": self.in_timestamp,
            "OUT_TIMESTAMP": self.out_timestamp,
            "IN_PORT": self.in_port,
            "OUT_PORT": self.out_port,
            "PKT_LEN": self.pkt_len,
            "QUEUE_DEPTH": self.queue_depth,
            "DEQ_TIMESTAMP": self.deq_timestamp,
            "ENQ_TIMESTAMP": self.enq_timestamp,
            "PKT_INSTANCE_TYPE": self.instance_type,
            "MCAST_GRP": self.mcast_grp,
        }
        try:
            return mapping[field]
        except KeyError:
            raise TargetError(f"unknown intrinsic field {field!r}") from None

    def clone(self) -> "ImState":
        out = ImState()
        out.__dict__.update(self.__dict__)
        return out


class PktObject:
    """The ``pkt`` logical extern wrapping the raw packet bytes."""

    def __init__(self, packet) -> None:
        self.packet = packet

    def call(self, method: str, args: List[object]) -> object:
        if method == "get_length":
            return len(self.packet)
        if method == "copy_from":
            other = args[0]
            if isinstance(other, PktObject):
                self.packet.copy_from(other.packet)
            return None
        raise TargetError(f"pkt has no method {method!r}")


class RegisterState:
    """The ``register`` stateful extern: persists across packets."""

    def __init__(self, size: int = 1024) -> None:
        self.size = size
        self.cells: Dict[int, int] = {}

    def call(self, method: str, args: List[object]) -> object:
        if method == "write":
            index, value = int(args[0]), int(args[1])  # type: ignore[arg-type]
            self.cells[index % self.size] = value
            return None
        if method == "read":
            # Two-arg form: (out value, in index) — the interpreter
            # evaluates args by value, so read is dispatched specially
            # by the caller with an lvalue; here we only compute.
            index = int(args[-1])  # type: ignore[arg-type]
            return self.cells.get(index % self.size, 0)
        raise TargetError(f"register has no method {method!r}")


class McEngine:
    """The ``mc_engine`` logical extern (group selection only here;
    replication itself happens in the switch's PRE)."""

    def __init__(self, im: Optional[ImState] = None) -> None:
        self.im = im

    def call(self, method: str, args: List[object]) -> object:
        if method == "set_mc_group":
            if self.im is not None:
                self.im.mcast_grp = int(args[0])  # type: ignore[arg-type]
            return None
        if method == "apply":
            # Replication is realized by the PRE after ingress.
            return None
        if method == "set_buf":
            return None
        raise TargetError(f"mc_engine has no method {method!r}")


def default_value(t: ast.Type):
    """Default runtime value for a declared type."""
    if isinstance(t, ast.BitType):
        return 0
    if isinstance(t, ast.BoolType):
        return False
    if isinstance(t, ast.HeaderType):
        return HeaderValue(t)
    if isinstance(t, ast.StructType):
        return StructValue(t)
    if isinstance(t, ast.ExternType):
        if t.name == "mc_engine":
            return McEngine()
        if t.name == "register":
            return RegisterState()
        return None
    if isinstance(t, ast.EnumType):
        return t.members[0] if t.members else ""
    raise TargetError(f"cannot build a default value for {t}")


class Env:
    """Scoped variable environment.

    ``label`` names the enclosing block for diagnostics (the pipeline
    root, an action frame, a parser frame); child frames inherit their
    parent's label unless given their own.  A lookup miss raises a
    :class:`~repro.errors.TargetError` with the stable machine-readable
    code ``undefined-name`` naming both the identifier and the block, so
    the containment boundary reports a precise ``internal`` drop instead
    of a bare ``KeyError`` masquerading as a generic fault.
    """

    __slots__ = ("parent", "values", "label")

    def __init__(
        self, parent: Optional["Env"] = None, label: Optional[str] = None
    ) -> None:
        self.parent = parent
        self.values: Dict[str, object] = {}
        if label is None:
            label = parent.label if parent is not None else "pipeline"
        self.label = label

    def define(self, name: str, value: object) -> None:
        self.values[name] = value

    def _frame_of(self, name: str) -> Optional["Env"]:
        env: Optional[Env] = self
        while env is not None:
            if name in env.values:
                return env
            env = env.parent
        return None

    def _undefined(self, name: str, doing: str) -> TargetError:
        err = TargetError(
            f"{doing} undefined name {name!r} at runtime "
            f"(in {self.label})"
        )
        err.code = "undefined-name"
        return err

    def get(self, name: str) -> object:
        frame = self._frame_of(name)
        if frame is None:
            raise self._undefined(name, "read of")
        return frame.values[name]

    def set(self, name: str, value: object) -> None:
        frame = self._frame_of(name)
        if frame is None:
            raise self._undefined(name, "assignment to")
        frame.values[name] = value


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _width(t: Optional[ast.Type], what: str = "expression") -> int:
    if isinstance(t, ast.BitType):
        return t.width
    raise TargetError(f"{what} has no bit width at runtime (type {t})")


def _node_mask(expr: ast.Expr, t: Optional[ast.Type], what: str) -> int:
    """The ``(1 << width) - 1`` mask for ``expr``, memoized on the node.

    Widths are static properties of the typed AST, so both the width
    check and the mask construction happen once per node instead of once
    per packet — the interpreter's honest baseline for codegen's
    build-time specialization.
    """
    try:
        return expr._mask_cache  # type: ignore[attr-defined]
    except AttributeError:
        mask = (1 << _width(t, what)) - 1
        expr._mask_cache = mask  # type: ignore[attr-defined]
        return mask


def _node_width(expr: ast.Expr, t: Optional[ast.Type], what: str) -> int:
    """Bit width of ``expr``, memoized on the node (see :func:`_node_mask`)."""
    try:
        return expr._width_cache  # type: ignore[attr-defined]
    except AttributeError:
        width = _width(t, what)
        expr._width_cache = width  # type: ignore[attr-defined]
        return width


class Interpreter:
    """Executes statements of a composed pipeline."""

    def __init__(self, tables: Dict[str, TableRuntime]) -> None:
        self.tables = tables
        self.extract_hook: Optional[Callable] = None  # set by native parser
        self.module_hook: Optional[Callable] = None  # set by orchestration
        # Per-packet trace sink; set by the pipeline around process().
        self.ptrace: Optional[PacketTrace] = None
        # Resource guard: statements executed for the current packet.
        # The pipeline resets `steps` per packet; exceeding the budget
        # raises FaultError("step-budget"), which the switch converts
        # into a counted drop.
        self.steps = 0
        self.step_limit = DEFAULT_STEP_BUDGET
        # Fault injection plan (None on the production path).
        self.faults: Optional[FaultPlan] = None
        # Stage-latency sampling flag for the current packet; set by the
        # pipeline (every LATENCY_SAMPLE_EVERY-th packet while metrics
        # are enabled) so per-table timing stays off the common path.
        self.lat_sample = False

    # ==================================================================
    # Statements
    # ==================================================================
    def exec_block(self, stmts: List[ast.Stmt], env: Env) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.Stmt, env: Env) -> None:
        steps = self.steps + 1
        self.steps = steps
        if steps > self.step_limit:
            raise FaultError(
                "step-budget",
                f"interpreter exceeded {self.step_limit} statements "
                f"for one packet",
            )
        if isinstance(stmt, ast.BlockStmt):
            self.exec_block(stmt.stmts, Env(env))
        elif isinstance(stmt, ast.AssignStmt):
            value = self.eval(stmt.rhs, env)
            self.assign(stmt.lhs, value, env)
        elif isinstance(stmt, ast.VarDeclStmt):
            value = (
                self.eval(stmt.init, env)
                if stmt.init is not None
                else default_value(stmt.var_type)
            )
            env.define(stmt.name, value)
        elif isinstance(stmt, ast.MethodCallStmt):
            self.eval(stmt.call, env)
        elif isinstance(stmt, ast.IfStmt):
            if self.eval(stmt.cond, env):
                self.exec_stmt(stmt.then_body, env)
            elif stmt.else_body is not None:
                self.exec_stmt(stmt.else_body, env)
        elif isinstance(stmt, ast.SwitchStmt):
            self._exec_switch(stmt, env)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.ExitStmt):
            raise ExitSignal()
        elif isinstance(stmt, ast.ReturnStmt):
            raise ReturnSignal()
        else:
            raise TargetError(f"cannot execute {type(stmt).__name__}")

    def _exec_switch(self, stmt: ast.SwitchStmt, env: Env) -> None:
        subject = self.eval(stmt.subject, env)
        matched = None
        for index, case in enumerate(stmt.cases):
            for keyset in case.keysets:
                if isinstance(keyset, ast.DefaultExpr):
                    matched = index
                    break
                if self.eval(keyset, env) == subject:
                    matched = index
                    break
            if matched is not None:
                break
        if matched is None:
            return
        # Fallthrough: execute the first case at or after the match that
        # has a body.
        for case in stmt.cases[matched:]:
            if case.body is not None:
                self.exec_stmt(case.body, env)
                return

    # ==================================================================
    # Expressions
    # ==================================================================
    def eval(self, expr: ast.Expr, env: Env):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.PathExpr):
            decl = getattr(expr, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                return decl.value
            return env.get(expr.name)
        if isinstance(expr, ast.MemberExpr):
            return self._eval_member(expr, env)
        if isinstance(expr, ast.SliceExpr):
            base = self.eval(expr.base, env)
            width = expr.hi - expr.lo + 1
            return (base >> expr.lo) & ((1 << width) - 1)
        if isinstance(expr, ast.UnaryExpr):
            operand = self.eval(expr.operand, env)
            if expr.op == "!":
                return not operand
            mask = _node_mask(
                expr, expr.type if expr.type else expr.operand.type, "unary"
            )
            if expr.op == "~":
                return ~operand & mask
            if expr.op == "-":
                return -operand & mask
            raise TargetError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, ast.CastExpr):
            value = self.eval(expr.operand, env)
            if isinstance(expr.target, ast.BitType):
                return _mask(int(value), expr.target.width)
            if isinstance(expr.target, ast.BoolType):
                return bool(value)
            raise TargetError(f"unsupported cast to {expr.target}")
        if isinstance(expr, ast.BinaryExpr):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.MethodCallExpr):
            return self._eval_call(expr, env)
        raise TargetError(f"cannot evaluate {type(expr).__name__}")

    def _eval_member(self, expr: ast.MemberExpr, env: Env):
        # Enum member access (meta_t.IN_PORT) evaluates to the member name.
        if isinstance(expr.base, ast.PathExpr):
            decl = getattr(expr.base, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "type" and isinstance(
                decl.type, ast.EnumType
            ):
                return expr.member
        base = self.eval(expr.base, env)
        if isinstance(base, (HeaderValue, StructValue)):
            try:
                return base.fields[expr.member]
            except KeyError:
                raise TargetError(
                    f"no field {expr.member!r} in {base!r}"
                ) from None
        raise TargetError(f"cannot read member {expr.member!r} of {base!r}")

    def _eval_binary(self, expr: ast.BinaryExpr, env: Env):
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env))
        if op == "||":
            return bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op in ("<", "<=", ">", ">="):
            return {
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[op]
        if op == "++":
            rwidth = _node_width(expr.right, expr.right.type, "concat operand")
            return (int(left) << rwidth) | int(right)
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == ">>":
            return int(left) >> int(right)
        # Width-truncating ops: the result mask is a static property of
        # the typed node, so it is computed once and memoized there
        # rather than rebuilt (f-string and all) on every packet.
        mask = _node_mask(expr, expr.type, f"result of {op!r}")
        if op == "+":
            return (int(left) + int(right)) & mask
        if op == "-":
            return (int(left) - int(right)) & mask
        if op == "*":
            return (int(left) * int(right)) & mask
        if op == "/":
            if right == 0:
                raise TargetError("division by zero in dataplane expression")
            return (int(left) // int(right)) & mask
        if op == "%":
            if right == 0:
                raise TargetError("modulo by zero in dataplane expression")
            return (int(left) % int(right)) & mask
        if op == "<<":
            return (int(left) << int(right)) & mask
        raise TargetError(f"unknown binary op {op!r}")

    # ==================================================================
    # Calls
    # ==================================================================
    def _eval_call(self, call: ast.MethodCallExpr, env: Env):
        resolved = getattr(call, "resolved", None)
        if resolved is None:
            raise TargetError("unresolved call reached the interpreter")
        kind = resolved[0]
        if kind == "header_op":
            return self._header_op(call, resolved[1], env)
        if kind == "table":
            return self._apply_table(resolved[1], env)
        if kind == "action":
            return self._call_action(resolved[1], call.args, env)
        if kind == "extern":
            return self._extern_call(call, resolved[1], resolved[2], env)
        if kind == "builtin":
            return self._builtin_call(call, resolved[1], env)
        if kind == "module":
            if self.module_hook is not None:
                return self.module_hook(call, env)
            raise TargetError(
                "module apply survived inlining; run the composer first"
            )
        if kind == "stack_op":
            raise TargetError(
                "header-stack op survived lowering; run the hdr_stack pass"
            )
        raise TargetError(f"cannot execute call kind {kind!r}")

    def _header_op(self, call: ast.MethodCallExpr, op: str, env: Env):
        target = call.target
        assert isinstance(target, ast.MemberExpr)
        base = self.eval(target.base, env)
        if not isinstance(base, HeaderValue):
            raise TargetError(f"{op} on a non-header value {base!r}")
        if op == "isValid":
            return base.valid
        if op == "setValid":
            base.valid = True
            return None
        if op == "setInvalid":
            base.valid = False
            return None
        raise TargetError(f"unknown header op {op!r}")

    def _apply_table(self, decl: ast.TableDecl, env: Env):
        runtime = self.tables.get(decl.name)
        if runtime is None:
            raise TargetError(f"table {decl.name!r} has no runtime state")
        if self.faults is not None and self.faults.trip("table", decl.name):
            raise FaultError(
                "extern-fault",
                f"injected lookup failure in table {decl.name!r}",
                site=f"table:{decl.name}",
            )
        # Evaluate the key expressions once into a tuple; the runtime's
        # key_exprs/key_widths vectors are cached at construction so the
        # per-packet cost is just the expression evaluations.
        metrics_on = METRICS.enabled
        lat_on = self.lat_sample
        if lat_on:
            t0 = _perf_counter()
        evaluate = self.eval
        key_values = tuple(
            int(evaluate(expr, env)) for expr in runtime.key_exprs
        )
        action_name, args, hit, entry = runtime.lookup_full(key_values)
        if lat_on:
            METRICS.observe(
                "pipeline.latency_us.lookup", (_perf_counter() - t0) * 1e6
            )
        if self.ptrace is not None:
            self.ptrace.table(
                decl.name,
                key_values,
                action_name,
                hit,
                entry=runtime.entry_index(entry) if entry is not None else None,
                const=entry.is_const if entry is not None else None,
                args=args,
            )
        if metrics_on:
            METRICS.inc("interp.table_hits" if hit else "interp.table_misses")
        if action_name != "NoAction":
            action = runtime.selectable_actions.get(action_name)
            if action is None:
                raise TargetError(
                    f"table {decl.name!r} selected unknown action "
                    f"{action_name!r}"
                )
            if lat_on:
                t0 = _perf_counter()
            self._invoke_action(action, args, env)
            if lat_on:
                METRICS.observe(
                    "pipeline.latency_us.action",
                    (_perf_counter() - t0) * 1e6,
                )
        return hit

    def _call_action(self, decl: ast.ActionDecl, args: List[ast.Expr], env: Env):
        values = [self.eval(a, env) for a in args]
        self._invoke_action(decl, values, env)
        return None

    def _invoke_action(self, decl: ast.ActionDecl, args: List, env: Env) -> None:
        frame = Env(env, label=f"action {decl.name!r}")
        if len(args) != len(decl.params):
            raise TargetError(
                f"action {decl.name!r} expects {len(decl.params)} args, "
                f"got {len(args)}"
            )
        for param, value in zip(decl.params, args):
            frame.define(param.name, value)
        self.exec_block(decl.body.stmts, frame)

    def _builtin_call(self, call: ast.MethodCallExpr, name: str, env: Env):
        if name == "recirculate":
            im = env.get("upa_im")
            if isinstance(im, ImState):
                im.recirculate_requested = True
            for arg in call.args:
                self.eval(arg, env)
            return None
        raise TargetError(f"unknown builtin function {name!r}")

    def _extern_call(
        self, call: ast.MethodCallExpr, extern: str, method: str, env: Env
    ):
        target = call.target
        assert isinstance(target, ast.MemberExpr)
        if self.faults is not None and self.faults.trip("extern", extern):
            raise FaultError(
                "extern-fault",
                f"injected fault in extern {extern!r}.{method}",
                site=f"extern:{extern}",
            )
        if extern == "extractor":
            if self.extract_hook is None:
                raise TargetError(
                    "extractor.extract outside a native parser context"
                )
            return self.extract_hook(call, env)
        if extern == "emitter":
            raise TargetError("emitter.emit outside a native deparser context")
        obj = self.eval(target.base, env)
        if isinstance(obj, RegisterState) and method == "read":
            index = self.eval(call.args[1], env)
            value = obj.call("read", [index])
            self.assign(call.args[0], value, env)
            return None
        args = [self.eval(a, env) for a in call.args]
        if hasattr(obj, "call"):
            return obj.call(method, args)
        raise TargetError(f"extern instance {extern!r} missing at runtime")

    # ==================================================================
    # Assignment
    # ==================================================================
    def assign(self, lhs: ast.Expr, value, env: Env) -> None:
        if isinstance(lhs, ast.PathExpr):
            if isinstance(lhs.type, ast.BitType):
                value = _mask(int(value), lhs.type.width)
            env.set(lhs.name, value)
            return
        if isinstance(lhs, ast.MemberExpr):
            base = self.eval(lhs.base, env)
            if isinstance(base, (HeaderValue, StructValue)):
                if lhs.member not in base.fields:
                    raise TargetError(f"no field {lhs.member!r} in {base!r}")
                if isinstance(lhs.type, ast.BitType):
                    value = _mask(int(value), lhs.type.width)
                base.fields[lhs.member] = value
                return
            raise TargetError(f"cannot assign member of {base!r}")
        if isinstance(lhs, ast.SliceExpr):
            current = self.eval(lhs.base, env)
            width = lhs.hi - lhs.lo + 1
            mask = ((1 << width) - 1) << lhs.lo
            updated = (int(current) & ~mask) | ((int(value) & ((1 << width) - 1)) << lhs.lo)
            self.assign(lhs.base, updated, env)
            return
        raise TargetError(f"unsupported lvalue {type(lhs).__name__}")
