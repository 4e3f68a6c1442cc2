"""Source-codegen execution backend: the composed pipeline as one
generated Python function.

The closure backend (:mod:`repro.targets.compiled`) already moved all
AST dispatch and name resolution to build time, but each statement is
still one Python *call* over a shared register list.  This module goes
one step further down the µP4C "do it at compile time" ladder: a
:class:`CodegenPipeline` renders the composed program into **Python
source** — parser, table dispatch, inlined action bodies, and deparser
as one module-level function per pipeline — then ``compile()``s and
``exec``s it once.  Per-packet work after that is plain local-variable
bytecode:

* every pipeline variable is a function **local** (no ``ctx.regs``
  indexing);
* widths, masks, pack/unpack plans, fault-site strings and trace labels
  are inlined **constants**;
* header fields are **placed**, the way µP4C's backends place them in
  PHV containers: every struct/header variable the program only touches
  through typed field accesses and header ops — the micro-pipeline byte
  stack first of all — is one local per leaf field plus one validity
  local per header, no object built and no dict probed per packet
  (:mod:`repro.targets.lanes` decides per variable; a variable that is
  copied whole or handed to an extern keeps the object form);
* the bodies of the actions a table can select
  (``TableRuntime.selectable_actions``) are inlined at its apply site,
  so a hit runs straight-line code instead of a dict lookup plus
  invoker call;
* a table with const entries and no ``lpm`` key — every parser and
  deparser MAT the midend makes — is answered at its apply site while
  nothing has written it (``TableRuntime.as_declared``): one dict probe
  or a first-match chain instead of a ``lookup_full`` call.

The generated function preserves the interpreter's observable contract
(the differential suite in ``tests/targets/test_compiled_equiv.py``
enforces it across all ``EXEC_BACKENDS``): identical verdict streams,
drop reasons, ``PacketTrace`` events, fault-site trip order, error
strings, and statement-exact step accounting against
``interp_step_budget``.

One body, a list of lanes
-------------------------

The generated function ``_cg_run`` takes a list of lanes and runs the
whole per-packet prologue, body and epilogue for each in turn, one
``(outputs, reason, exc)`` triple per lane.  ``process`` hands it one
lane; ``process_soa`` hands it a batch with tracing and latency sampling
off.  Digest parity between the two holds because a lane is exactly a
per-packet run, and every per-site ``FaultPlan`` stream ("table" /
"extern" in the body, "buffer" and mutation sites in the switch) sees
lanes in submission order.

Metrics are emitted under ``codegen.*`` (``codegen.packets``,
``codegen.table_hits``/``misses``, ``codegen.builds``) alongside the
``interp.*`` and ``compiled.*`` families.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

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
    PktObject,
    RegisterState,
    ReturnSignal,
)
from repro.targets.lanes import (
    FlatLayout,
    LaneVars,
    lane_variables,
    resolve_member,
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

#: Strings safe to re-emit without pinning into a temp: evaluating them
#: is side-effect free and order-independent (bare locals, literals).
_ATOM = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*|\d+|'[^'\\]*')\Z")


# ======================================================================
# Runtime helpers injected into every generated namespace
# ======================================================================


def _te(message, code=None, *_evaluated):
    """Raise a (possibly reason-coded) TargetError; usable in expression
    position since it never returns.  Extra args exist so Python's
    left-to-right call evaluation forces operand side effects first."""
    err = TargetError(message)
    if code is not None:
        err.code = code
    raise err


def _te_after(message, *_evaluated):
    """Raise after evaluating the operand arguments — the interpreter
    evaluates sub-expressions before discovering a missing width or an
    unsupported cast."""
    raise TargetError(message)


def _mem(target, m):
    """Untyped member read with the interpreter's exact error texts."""
    try:
        return target.fields[m]
    except KeyError:
        raise TargetError(f"no field {m!r} in {target!r}") from None
    except AttributeError:
        raise TargetError(f"cannot read member {m!r} of {target!r}") from None


def _stm(value, target, m, mask=None):
    """Untyped member store; ``value`` is the first parameter so the
    generated call evaluates it before the base, like the interpreter."""
    try:
        flds = target.fields
    except AttributeError:
        raise TargetError(f"cannot assign member of {target!r}") from None
    if m not in flds:
        raise TargetError(f"no field {m!r} in {target!r}")
    flds[m] = value if mask is None else int(value) & mask
    return None


def _div(lv, rv, mask):
    if rv == 0:
        raise TargetError("division by zero in dataplane expression")
    return (int(lv) // int(rv)) & mask


def _mod(lv, rv, mask):
    if rv == 0:
        raise TargetError("modulo by zero in dataplane expression")
    return (int(lv) % int(rv)) & mask


class _Block:
    """Indentation context manager for :class:`SourceGen`."""

    __slots__ = ("gen",)

    def __init__(self, gen) -> None:
        self.gen = gen

    def __enter__(self):
        self.gen.ind += 1
        return self

    def __exit__(self, *exc):
        self.gen.ind -= 1
        return False


class _Region:
    """One budget check and what it covers so far (``SourceGen.step``):
    ``buf[header]`` is its ``steps += count`` line, and a statement
    joins it only if it starts at line ``end`` of ``buf``, at ``ind``."""

    __slots__ = ("buf", "header", "count", "end", "ind")

    def __init__(self, buf, header: int, ind: int) -> None:
        self.buf = buf
        self.header = header
        self.count = 1
        self.end = -1
        self.ind = ind


# ======================================================================
# The source generator
# ======================================================================


class SourceGen:
    """Renders one :class:`ComposedPipeline` into Python source.

    Mirrors the scoping model of ``compiled._Compiler``: lexical frames
    map pipeline names to generated function locals, redeclaration in
    the same frame reuses the local, shadowing in a child frame gets a
    fresh one.  Every statement is counted against the step budget
    exactly as the interpreter counts it, one check per *side-effect
    region* (:meth:`step`), and all dynamic error messages are rendered
    with ``%`` formatting so the strings are byte-identical to the
    interpreter's f-strings.

    ``tables`` is read for what a table *is* (key expressions,
    selectable actions), never for its entries: the text, and so the
    :class:`GeneratedModule` made from it, belongs to the program, not
    to the executor whose tables these are.  ``lane_vars``: the
    program's lane decision, when the caller already has it.
    """

    def __init__(
        self,
        composed: ComposedPipeline,
        tables: Dict[str, TableRuntime],
        lane_vars: Optional[LaneVars] = None,
    ) -> None:
        self.composed = composed
        self.tables = tables
        self.namespace: Dict[str, object] = {
            "_TErr": TargetError,
            "_FErr": FaultError,
            "_PErr": ParserErrorSignal,
            "_Exit": ExitSignal,
            "_Return": ReturnSignal,
            "_HV": HeaderValue,
            "_IM": ImState,
            "_Reg": RegisterState,
            "_PktObj": PktObject,
            "_Pkt": Packet,
            "_POut": PacketOut,
            "_obs": METRICS.observe,
            "_perf": perf_counter,
            "_ifb": int.from_bytes,
            "_te": _te,
            "_te_after": _te_after,
            "_mem": _mem,
            "_stm": _stm,
            "_div": _div,
            "_mod": _mod,
        }
        self._out: List[Tuple[int, str]] = []
        self._cur = self._out
        self._bufstack: List[Tuple[List[Tuple[int, str]], int]] = []
        self.ind = 0
        self.nlocals = 0
        self.dispatch_arms = 0
        self._n = 0
        # name -> (local, is_int), or (None, False, bound lane node,
        # cell locals) for a flattened variable (repro.targets.lanes).
        self._frames: List[Dict[str, tuple]] = []
        self._flat_memo: Dict[int, Optional[tuple]] = {}
        self._labels: List[str] = []
        self._pool_ids: Dict[int, str] = {}
        #: table name -> suffix of its ``_LK``/``_EI`` namespace slots,
        #: which each executor binds to its own TableRuntime.
        self.table_slots: Dict[str, str] = {}
        #: Tables answered inline while as declared (``_table_apply``),
        #: in the order of their ``_lq`` counters.
        self.inline_tables: List[str] = []
        # Whether the body just generated reads the ``pkt`` extern.
        self._pkt_read = False
        # Step regions (see ``step``): the check covering the statement
        # being emitted, and the one the next statement may still join.
        self._checked: Optional[_Region] = None
        self._region: Optional[_Region] = None
        self.in_parser = False
        self.uses_recirc = False
        self.lane_vars = lane_vars or lane_variables(composed)
        #: name -> layout of every variable lowered as per-cell locals.
        self.flat = dict(self.lane_vars.flat)
        # Width of every flattened bit<W> cell local: they are only ever
        # stored masked, so a copy between two of them needs no mask.
        self._cell_width: Dict[str, int] = {}
        # The byte stack is the one flattened variable with fixed cell
        # names: the prologue loads and the deparser packs them by
        # position.
        self.bs_scalar = False
        self.bs_size = 0
        self.bs_extract_len = 0
        if composed.mode == "micro" and composed.byte_stack is not None:
            self.bs_size = composed.byte_stack.size
            self.bs_extract_len = composed.region.extract_length
            self.bs_scalar = (
                self.bs_extract_len <= self.bs_size
                and BS_INSTANCE in self.flat
            )
        self.bs_layout = self.flat.pop(BS_INSTANCE, None)
        self.bs_locals = tuple(f"_bs{i}" for i in range(self.bs_size))

    # ------------------------------------------------------------------
    # Emission plumbing
    # ------------------------------------------------------------------
    def line(self, text: str) -> None:
        self._cur.append((self.ind, text))

    def reserve(self) -> Tuple[List[Tuple[int, Optional[str]]], int, int]:
        """Hold the current line for text known only after the body
        below it is generated (:meth:`fill`); left empty, it renders
        as nothing."""
        self._cur.append((self.ind, None))
        return self._cur, len(self._cur) - 1, self.ind

    @staticmethod
    def fill(at, text: str) -> None:
        buf, index, ind = at
        buf[index] = (ind, text)

    def block(self) -> _Block:
        return _Block(self)

    def _buf_push(self) -> None:
        self._bufstack.append((self._cur, self.ind))
        self._cur = []

    def _buf_pop(self) -> Tuple[List[Tuple[int, str]], int]:
        lines = self._cur
        self._cur, base = self._bufstack.pop()
        return lines, base

    def _splice(self, buf: Tuple[List[Tuple[int, str]], int]) -> None:
        lines, base = buf
        delta = self.ind - base
        for ind, text in lines:
            self._cur.append((ind + delta, text))

    @contextmanager
    def _observing(self, cond: str):
        """A block under a per-packet observability condition
        (``lat_on``, ``trace is not None``)."""
        self.line(f"if {cond}:")
        with self.block():
            yield

    def tmp(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def render(self) -> str:
        return "\n".join(
            "    " * ind + text for ind, text in self._out if text is not None
        )

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    def _push_frame(self, label: Optional[str] = None) -> None:
        if label is None:
            label = self._labels[-1] if self._labels else "pipeline"
        self._frames.append({})
        self._labels.append(label)
        self._flat_memo.clear()

    def _pop_frame(self) -> None:
        self._frames.pop()
        self._labels.pop()
        self._flat_memo.clear()

    def _define(self, name: str, is_int: bool) -> str:
        frame = self._frames[-1]
        ent = frame.get(name)
        if ent is not None:
            # Same-frame redeclaration reuses the local, like
            # ``Env.define`` overwriting a slot.
            frame[name] = (ent[0], is_int)
            return ent[0]
        self._n += 1
        self.nlocals += 1
        local = f"v{self._n}"
        frame[name] = (local, is_int)
        self._flat_memo.clear()
        return local

    def _define_flat(
        self, name: str, layout: FlatLayout, cells: Optional[tuple] = None
    ) -> Tuple[str, ...]:
        """Bind ``name`` to one local per cell of ``layout`` (``cells``
        when the names are fixed) and return the locals."""
        frame = self._frames[-1]
        ent = frame.get(name)
        if ent is not None:
            # Same-frame redeclaration reuses the locals, like _define.
            return ent[3]
        if cells is None:
            self._n += 1
            cells = tuple(
                f"v{self._n}_{i}_{label}"
                for i, label in enumerate(layout.labels)
            )
            self.nlocals += len(cells)
        for local, width in zip(cells, layout.widths):
            if width is not None:
                self._cell_width[local] = width
        frame[name] = (None, False, layout.bind(cells), cells)
        self._flat_memo.clear()
        return cells

    def _find(self, name: str) -> Optional[tuple]:
        for frame in reversed(self._frames):
            ent = frame.get(name)
            if ent is not None:
                return ent
        return None

    def _flat_root(self, name: str):
        ent = self._find(name)
        return ent[2] if ent is not None and len(ent) > 2 else None

    def _flat_node(self, e: ast.Expr):
        """The lane node of a member chain rooted at a flattened
        variable (lane_variables admits only leaf accesses and header
        ops on those), else None.  Asked several times per statement
        (purity, int-ness, rendering), so remembered per node until a
        scope or binding changes."""
        memo = self._flat_memo
        key = id(e)
        if key in memo:
            return memo[key]
        node = memo[key] = resolve_member(e, self._flat_root)
        return node

    def _undef(self, name: str, doing: str) -> str:
        msg = (
            f"{doing} undefined name {name!r} at runtime "
            f"(in {self._labels[-1]})"
        )
        return f"_te({msg!r}, 'undefined-name')"

    def pooled(self, obj, prefix: str) -> str:
        key = id(obj)
        got = self._pool_ids.get(key)
        if got is None:
            self._n += 1
            got = f"{prefix}{self._n}"
            self._pool_ids[key] = got
            self.namespace[got] = obj
        return got

    # ------------------------------------------------------------------
    # Evaluation-order machinery
    # ------------------------------------------------------------------
    def _eval_all(self, nodes: List[ast.Expr]) -> List[str]:
        """Compile ``nodes`` left to right.  Any operand whose value
        must exist before a *later* operand's emitted pre-lines run is
        pinned into a temp, so side effects keep interpreter order."""
        staged = []
        for node in nodes:
            self._buf_push()
            s = self.expr(node)
            staged.append((self._buf_pop(), s))
        last_pre = -1
        for i, (buf, _s) in enumerate(staged):
            if buf[0]:
                last_pre = i
        out = []
        for i, (buf, s) in enumerate(staged):
            self._splice(buf)
            if i < last_pre and not _ATOM.match(s):
                t = self.tmp()
                self.line(f"{t} = {s}")
                s = t
            out.append(s)
        return out

    # ------------------------------------------------------------------
    # Static int-ness (for eliding ``int()`` exactly where the closure
    # backend's semantics make it a no-op)
    # ------------------------------------------------------------------
    def is_int(self, node: ast.Expr) -> bool:
        if isinstance(node, ast.IntLit):
            return True
        if isinstance(node, ast.PathExpr):
            decl = getattr(node, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                return isinstance(decl.value, int) and not isinstance(
                    decl.value, bool
                )
            ent = self._find(node.name)
            return ent is not None and ent[1]
        if isinstance(node, ast.MemberExpr):
            leaf = self._flat_node(node)
            return leaf is not None and leaf[2] is not None
        if isinstance(node, ast.SliceExpr):
            return True
        if isinstance(node, ast.CastExpr):
            return isinstance(node.target, ast.BitType)
        if isinstance(node, ast.UnaryExpr):
            if node.op not in ("~", "-"):
                return False
            t = node.type if node.type else node.operand.type
            return isinstance(t, ast.BitType)
        if isinstance(node, ast.BinaryExpr):
            op = node.op
            if op in ("&", "|", "^", ">>", "++"):
                return True
            if op in ("+", "-", "*", "<<", "/", "%"):
                return isinstance(node.type, ast.BitType)
            return False
        return False

    # ------------------------------------------------------------------
    # Value rendering ``vector.ColumnwiseGen`` changes for numpy
    # columns: the coercion to int, a mask, headroom before a mask, and
    # a store into a local
    # ------------------------------------------------------------------
    _INT = "int"

    def as_int(self, node: ast.Expr, s: str) -> str:
        return s if self.is_int(node) else f"{self._INT}({s})"

    @staticmethod
    def _mask(s: str, width: int) -> str:
        return f"({s} & {(1 << width) - 1})"

    @staticmethod
    def _widen(s: str, bits: Optional[int]) -> str:
        """``s`` as the operand of a result that can need ``bits`` bits
        (None: unbounded) before its mask.  Python ints have room."""
        return s

    def _assign(self, local: str, value: str) -> None:
        self.line(f"{local} = {value}")

    # ------------------------------------------------------------------
    # Expressions (may emit pre-lines; return an expression string)
    # ------------------------------------------------------------------
    def expr(self, e: ast.Expr) -> str:
        if isinstance(e, ast.IntLit):
            return repr(e.value)
        if isinstance(e, ast.BoolLit):
            return repr(e.value)
        if isinstance(e, ast.PathExpr):
            decl = getattr(e, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                v = decl.value
                if v is None or isinstance(v, (bool, int, str)):
                    return repr(v)
                return self.pooled(v, "_K")
            ent = self._find(e.name)
            if ent is None:
                return self._undef(e.name, "read of")
            assert ent[0] is not None, f"whole-value read of flattened {e.name!r}"
            if e.name == PKT_VAR:
                self._pkt_read = True
            return ent[0]
        if isinstance(e, ast.MemberExpr):
            return self._member(e)
        if isinstance(e, ast.SliceExpr):
            b = self.expr(e.base)
            return self._mask(f"({b} >> {e.lo})", e.hi - e.lo + 1)
        if isinstance(e, ast.UnaryExpr):
            return self._unary(e)
        if isinstance(e, ast.CastExpr):
            if isinstance(e.target, ast.BitType):
                o = self.expr(e.operand)
                return self._mask(self.as_int(e.operand, o), e.target.width)
            if isinstance(e.target, ast.BoolType):
                o = self.expr(e.operand)
                return f"bool({o})"
            o = self.expr(e.operand)
            msg = f"unsupported cast to {e.target}"
            return f"_te_after({msg!r}, {o})"
        if isinstance(e, ast.BinaryExpr):
            return self._binary(e)
        if isinstance(e, ast.MethodCallExpr):
            return self.call(e)
        msg = f"cannot evaluate {type(e).__name__}"
        return f"_te({msg!r})"

    def _member(self, e: ast.MemberExpr) -> str:
        base = e.base
        if isinstance(base, ast.PathExpr):
            decl = getattr(base, "decl", None)
            if (
                isinstance(decl, Symbol)
                and decl.kind == "type"
                and isinstance(decl.type, ast.EnumType)
            ):
                return repr(e.member)
        leaf = self._flat_node(e)
        if leaf is not None:
            return leaf[1]
        bt = getattr(base, "type", None)
        b = self.expr(base)
        if isinstance(bt, (ast.HeaderType, ast.StructType)) and any(
            n == e.member for n, _t in bt.fields
        ):
            # Statically present field: the runtime dict always holds
            # every declared field, so the guarded helper is pure cost.
            return f"{b}.fields[{e.member!r}]"
        return f"_mem({b}, {e.member!r})"

    def _unary(self, e: ast.UnaryExpr) -> str:
        if e.op == "!":
            o = self.expr(e.operand)
            return f"(not {o})"
        t = e.type if e.type else e.operand.type
        if not isinstance(t, ast.BitType):
            o = self.expr(e.operand)
            msg = f"unary has no bit width at runtime (type {t})"
            return f"_te_after({msg!r}, {o})"
        o = self.expr(e.operand)
        if e.op in ("~", "-"):
            return self._mask(f"{e.op}{self._widen(o, t.width)}", t.width)
        msg = f"unknown unary op {e.op!r}"
        return f"_te({msg!r})"

    _CMP = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

    def _binary(self, e: ast.BinaryExpr) -> str:
        op = e.op
        if op in ("&&", "||"):
            self._buf_push()
            ls = self.expr(e.left)
            lbuf = self._buf_pop()
            self._buf_push()
            rs = self.expr(e.right)
            rbuf = self._buf_pop()
            self._splice(lbuf)
            if not rbuf[0]:
                kw = "and" if op == "&&" else "or"
                return f"(bool({ls}) {kw} bool({rs}))"
            t = self.tmp()
            self.line(f"{t} = bool({ls})")
            self.line(f"if {t}:" if op == "&&" else f"if not {t}:")
            with self.block():
                self._splice(rbuf)
                self.line(f"{t} = bool({rs})")
            return t
        ls, rs = self._eval_all([e.left, e.right])
        cmp = self._CMP.get(op)
        if cmp is not None:
            return f"({ls} {cmp} {rs})"
        li = self.as_int(e.left, ls)
        ri = self.as_int(e.right, rs)
        if op == "++":
            rt = e.right.type
            if not isinstance(rt, ast.BitType):
                msg = f"concat operand has no bit width at runtime (type {rt})"
                return f"_te_after({msg!r}, {ls}, {rs})"
            bits = e.type.width if isinstance(e.type, ast.BitType) else None
            return f"(({self._widen(li, bits)} << {rt.width}) | {ri})"
        if op in ("&", "|", "^", ">>"):
            return f"({li} {op} {ri})"
        if not isinstance(e.type, ast.BitType):
            msg = (
                f"result of {op!r} has no bit width at runtime "
                f"(type {e.type})"
            )
            return f"_te_after({msg!r}, {ls}, {rs})"
        w = e.type.width
        mask = (1 << w) - 1
        if op in ("+", "-", "*", "<<"):
            bits = 2 * w if op == "*" else w
            if op == "<<":
                k = e.right
                bits = w + k.value if isinstance(k, ast.IntLit) else None
            li, ri = self._widen(li, bits), self._widen(ri, bits)
            return self._mask(f"({li} {op} {ri})", w)
        if op == "/":
            return f"_div({ls}, {rs}, {mask})"
        if op == "%":
            return f"_mod({ls}, {rs}, {mask})"
        msg = f"unknown binary op {op!r}"
        return f"_te({msg!r})"

    # ------------------------------------------------------------------
    # Stores.  Callers must fully evaluate the value first (temp it when
    # non-atomic) — the interpreter computes the RHS before any lvalue
    # base expression runs.
    # ------------------------------------------------------------------
    def _masked_width(self, e: ast.Expr) -> Optional[int]:
        """W when ``e`` renders already masked to W bits (a slice, a
        cast to ``bit<W>``, ``bit<W>`` arithmetic), so a store into W or
        more bits needs no second mask."""
        if isinstance(e, ast.SliceExpr):
            return e.hi - e.lo + 1
        if isinstance(e, ast.CastExpr) and isinstance(e.target, ast.BitType):
            return e.target.width
        if (
            isinstance(e, ast.BinaryExpr)
            and e.op in ("+", "-", "*", "<<", "/", "%")
            and isinstance(e.type, ast.BitType)
        ):
            return e.type.width
        return None

    def store(
        self, lhs: ast.Expr, vs: str, v_int: bool, v_width: Optional[int] = None
    ) -> None:
        """``v_width``: the value is an int already masked to that many
        bits (:meth:`_masked_width`; cell locals are looked up here)."""
        if v_width is None:
            v_width = self._cell_width.get(vs)
        if isinstance(lhs, ast.PathExpr):
            ent = self._find(lhs.name)
            if ent is None:
                self.line(self._undef(lhs.name, "assignment to"))
                return
            assert ent[0] is not None, f"whole-value store to flattened {lhs.name!r}"
            local = ent[0]
            width = lhs.type.width if isinstance(lhs.type, ast.BitType) else None
        elif isinstance(lhs, ast.MemberExpr) and self._flat_node(lhs) is not None:
            _kind, local, width = self._flat_node(lhs)
        elif isinstance(lhs, ast.MemberExpr):
            base = lhs.base
            bt = getattr(base, "type", None)
            typed = isinstance(bt, (ast.HeaderType, ast.StructType)) and any(
                n == lhs.member for n, _t in bt.fields
            )
            b = self.expr(base)
            if typed and isinstance(lhs.type, ast.BitType):
                mask = (1 << lhs.type.width) - 1
                vi = vs if v_int else f"int({vs})"
                self.line(f"{b}.fields[{lhs.member!r}] = {vi} & {mask}")
            elif typed:
                self.line(f"{b}.fields[{lhs.member!r}] = {vs}")
            elif isinstance(lhs.type, ast.BitType):
                mask = (1 << lhs.type.width) - 1
                self.line(f"_stm({vs}, {b}, {lhs.member!r}, {mask})")
            else:
                self.line(f"_stm({vs}, {b}, {lhs.member!r})")
            return
        elif isinstance(lhs, ast.SliceExpr):
            width = lhs.hi - lhs.lo + 1
            smask = (1 << width) - 1
            keep = ~(smask << lhs.lo)
            cur = self.expr(lhs.base)
            ci = self._widen(self.as_int(lhs.base, cur), lhs.hi)
            vi = self._widen(vs if v_int else f"{self._INT}({vs})", lhs.hi)
            t = self.tmp()
            self.line(
                f"{t} = ({ci} & {keep}) | (({vi} & {smask}) << {lhs.lo})"
            )
            self.store(lhs.base, t, True)
            return
        else:
            msg = f"unsupported lvalue {type(lhs).__name__}"
            self.line(f"_te({msg!r})")
            return
        if width is not None and not (v_width is not None and v_width <= width):
            # A bool, or a value no wider than the place, goes as is.
            vs = self._mask(vs if v_int else f"{self._INT}({vs})", width)
        self._assign(local, vs)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Count the statement about to be emitted against the budget.

        The interpreter checks before every statement.  Here one check
        covers a *side-effect region*: a run of pure statements (each
        only assigns locals from an expression that cannot raise and
        calls nothing, :meth:`_pure`) plus the statement after the run.
        The check sits ahead of the run and adds the whole count, so it
        fires iff the interpreter would have fired somewhere in the
        region; what it skips in that case is assignments to locals of
        a packet that is killed either way (DESIGN.md §15).  The format
        happens only on the cold path."""
        region, self._region = self._region, None
        if (
            region is not None
            and region.buf is self._cur
            and region.end == len(self._cur)
            and region.ind == self.ind
        ):
            region.count += 1
            region.buf[region.header] = (self.ind, f"steps += {region.count}")
            self._checked = region
            return
        self._checked = _Region(self._cur, len(self._cur), self.ind)
        self.line("steps += 1")
        self.line("if steps > step_limit:")
        with self.block():
            self.line(
                "raise _FErr('step-budget', 'interpreter exceeded "
                "%d statements for one packet' % step_limit)"
            )

    def _pure_done(self) -> None:
        """The statement just emitted was pure: the next statement of
        this block, if it starts right here, joins its check."""
        self._region = self._checked
        self._region.end = len(self._cur)

    def _pure(self, e: ast.Expr) -> bool:
        """Whether ``e`` renders to an expression over locals and
        literals that cannot raise and calls nothing but ``bool``:
        operands of arithmetic are statically ints (no ``int()`` of a
        table-supplied argument), no division, no object-form member."""
        if isinstance(e, (ast.IntLit, ast.BoolLit)):
            return True
        if isinstance(e, ast.PathExpr):
            decl = getattr(e, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                return True
            ent = self._find(e.name)
            return ent is not None and ent[0] is not None
        if isinstance(e, ast.MemberExpr):
            base = e.base
            decl = getattr(base, "decl", None)
            if (
                isinstance(base, ast.PathExpr)
                and isinstance(decl, Symbol)
                and decl.kind == "type"
                and isinstance(decl.type, ast.EnumType)
            ):
                return True
            leaf = self._flat_node(e)
            return leaf is not None and leaf[0] == "val"
        if isinstance(e, ast.SliceExpr):
            return self.is_int(e.base) and self._pure(e.base)
        if isinstance(e, ast.UnaryExpr):
            if e.op == "!":
                return self._pure(e.operand)
            t = e.type if e.type else e.operand.type
            return (
                e.op in ("~", "-")
                and isinstance(t, ast.BitType)
                and self.is_int(e.operand)
                and self._pure(e.operand)
            )
        if isinstance(e, ast.CastExpr):
            if isinstance(e.target, ast.BitType):
                return self.is_int(e.operand) and self._pure(e.operand)
            return isinstance(e.target, ast.BoolType) and self._pure(e.operand)
        if isinstance(e, ast.BinaryExpr):
            op = e.op
            if not (self._pure(e.left) and self._pure(e.right)):
                return False
            if op in ("&&", "||", "==", "!="):
                return True
            if not (self.is_int(e.left) and self.is_int(e.right)):
                return False
            if op in ("<", "<=", ">", ">=", "&", "|", "^", ">>"):
                return True
            if op == "++":
                return isinstance(e.right.type, ast.BitType)
            if op in ("+", "-", "*"):
                return isinstance(e.type, ast.BitType)
            if op == "<<":
                # A data-dependent shift count can ask for gigabytes.
                return isinstance(e.type, ast.BitType) and isinstance(
                    e.right, ast.IntLit
                )
            return False
        if isinstance(e, ast.MethodCallExpr):
            return self._flat_header_op(e) == "isValid"
        return False

    def _flat_header_op(self, c: ast.MethodCallExpr) -> Optional[str]:
        """The header op ``c`` performs on a flattened header — a read
        or write of its validity local — else None."""
        resolved = getattr(c, "resolved", None)
        if (
            resolved is None
            or resolved[0] != "header_op"
            or resolved[1] not in ("isValid", "setValid", "setInvalid")
            or not isinstance(c.target, ast.MemberExpr)
        ):
            return None
        hdr = self._flat_node(c.target.base)
        return resolved[1] if hdr is not None and hdr[0] == "hdr" else None

    def _pure_assign(self, s: ast.AssignStmt) -> bool:
        """Whether ``s`` stores a pure value into a scalar local or a
        flattened cell (possibly a slice of one)."""
        lhs, int_needed = s.lhs, False
        if isinstance(lhs, ast.SliceExpr):
            lhs, int_needed = lhs.base, True
            if not self.is_int(lhs):
                return False
        if isinstance(lhs, ast.PathExpr):
            ent = self._find(lhs.name)
            if ent is None or ent[0] is None:
                return False
            int_needed = int_needed or isinstance(lhs.type, ast.BitType)
        elif isinstance(lhs, ast.MemberExpr):
            leaf = self._flat_node(lhs)
            if leaf is None or leaf[0] != "val":
                return False
            int_needed = int_needed or leaf[2] is not None
        else:
            return False
        return (not int_needed or self.is_int(s.rhs)) and self._pure(s.rhs)

    def stmts(self, body: List[ast.Stmt]) -> None:
        for s in body:
            self.stmt(s)

    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.BlockStmt):
            self.step()
            self._pure_done()
            self._push_frame()
            self.stmts(s.stmts)
            self._pop_frame()
            return
        if isinstance(s, ast.AssignStmt):
            self.step()
            pure = self._pure_assign(s)
            self._buf_push()
            vs = self.expr(s.rhs)
            buf = self._buf_pop()
            self._splice(buf)
            v_int = self.is_int(s.rhs)
            if (
                not isinstance(s.lhs, ast.PathExpr)
                and not _ATOM.match(vs)
                and self._flat_node(s.lhs) is None
            ):
                # The lvalue's base expression must run after the value.
                t = self.tmp()
                self.line(f"{t} = {vs}")
                vs = t
            self.store(s.lhs, vs, v_int, self._masked_width(s.rhs))
            if pure:
                self._pure_done()
            return
        if isinstance(s, ast.VarDeclStmt):
            self.step()
            if s.init is not None:
                pure = self._pure(s.init)
                vs = self.expr(s.init)
                local = self._define(s.name, self.is_int(s.init))
                self.line(f"{local} = {vs}")
            else:
                pure = self._default_init(s.name, s.var_type)
            if pure:
                self._pure_done()
            return
        if isinstance(s, ast.MethodCallStmt):
            self.step()
            pure = self._flat_header_op(s.call) is not None
            self._buf_push()
            cs = self.call(s.call)
            buf = self._buf_pop()
            self._splice(buf)
            if cs != "None" and not _ATOM.match(cs):
                self.line(cs)
            if pure:
                self._pure_done()
            return
        if isinstance(s, ast.IfStmt):
            self.step()
            cond = self.expr(s.cond)
            self.line(f"if {cond}:")
            with self.block():
                self.stmt(s.then_body)
            if s.else_body is not None:
                self.line("else:")
                with self.block():
                    self.stmt(s.else_body)
            return
        if isinstance(s, ast.SwitchStmt):
            self._switch(s)
            return
        if isinstance(s, ast.EmptyStmt):
            self.step()
            self._pure_done()
            return
        if isinstance(s, ast.ExitStmt):
            self.step()
            self.line("raise _Exit()")
            return
        if isinstance(s, ast.ReturnStmt):
            self.step()
            self.line("raise _Return()")
            return
        self.step()
        msg = f"cannot execute {type(s).__name__}"
        self.line(f"raise _TErr({msg!r})")

    def _switch(self, s: ast.SwitchStmt) -> None:
        self.step()
        subj = self.expr(s.subject)
        t = self.tmp()
        self.line(f"{t} = {subj}")
        # Resolve fallthrough statically: a match on case i executes the
        # first non-empty body at or after i, like the closure backend.
        bodies = [case.body for case in s.cases]
        resolved = [
            next((b for b in bodies[i:] if b is not None), None)
            for i in range(len(bodies))
        ]
        arms: List[Tuple[Optional[ast.Expr], Optional[ast.Stmt]]] = []
        for index, case in enumerate(s.cases):
            for keyset in case.keysets:
                matcher = (
                    None if isinstance(keyset, ast.DefaultExpr) else keyset
                )
                arms.append((matcher, resolved[index]))
        self._switch_arms(arms, t)

    def _switch_arms(self, arms, t: str) -> None:
        if not arms:
            return
        matcher, body = arms[0]
        if matcher is None:
            # default arm: always matches, later arms are unreachable.
            if body is not None:
                self.stmt(body)
            else:
                self.line("pass")
            return
        ms = self.expr(matcher)
        self.line(f"if {ms} == {t}:")
        with self.block():
            if body is not None:
                self.stmt(body)
            else:
                self.line("pass")
        if len(arms) > 1:
            self.line("else:")
            with self.block():
                self._switch_arms(arms[1:], t)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(self, c: ast.MethodCallExpr) -> str:
        resolved = getattr(c, "resolved", None)
        if resolved is None:
            return "_te('unresolved call reached the interpreter')"
        kind = resolved[0]
        if kind == "header_op":
            return self._header_op(c, resolved[1])
        if kind == "table":
            return self._table_apply(resolved[1])
        if kind == "action":
            return self._action_call(c, resolved[1])
        if kind == "extern":
            return self._extern(c, resolved[1], resolved[2])
        if kind == "builtin":
            return self._builtin(c, resolved[1])
        if kind == "module":
            return (
                "_te('module apply survived inlining; "
                "run the composer first')"
            )
        if kind == "stack_op":
            return (
                "_te('header-stack op survived lowering; "
                "run the hdr_stack pass')"
            )
        msg = f"cannot execute call kind {kind!r}"
        return f"_te({msg!r})"

    def _header_op(self, c: ast.MethodCallExpr, op: str) -> str:
        target = c.target
        assert isinstance(target, ast.MemberExpr)
        base = target.base
        hdr = self._flat_node(base)
        if hdr is not None:
            valid = hdr[1]
            if op == "isValid":
                return valid
            if op in ("setValid", "setInvalid"):
                self._assign(valid, repr(op == "setValid"))
                return "None"
            msg = f"unknown header op {op!r}"
            self.line(f"raise _TErr({msg!r})")
            return "None"
        b = self.expr(base)
        if not _ATOM.match(b):
            t = self.tmp()
            self.line(f"{t} = {b}")
            b = t
        if op == "isValid":
            msg = "isValid on a non-header value %r"
            return (
                f"({b}.valid if isinstance({b}, _HV) "
                f"else _te({msg!r} % ({b},)))"
            )
        if op in ("setValid", "setInvalid"):
            self.line(f"if isinstance({b}, _HV):")
            with self.block():
                self.line(
                    f"{b}.valid = {'True' if op == 'setValid' else 'False'}"
                )
            self.line("else:")
            with self.block():
                msg = f"{op} on a non-header value %r"
                self.line(f"raise _TErr({msg!r} % ({b},))")
            return "None"
        self.line(f"if not isinstance({b}, _HV):")
        with self.block():
            msg = f"{op} on a non-header value %r"
            self.line(f"raise _TErr({msg!r} % ({b},))")
        msg = f"unknown header op {op!r}"
        self.line(f"raise _TErr({msg!r})")
        return "None"

    def _table_apply(self, decl) -> str:
        runtime = self.tables.get(decl.name)
        if runtime is None:
            msg = f"table {decl.name!r} has no runtime state"
            return f"_te({msg!r})"
        name = decl.name
        slot = self.table_slots.get(name)
        if slot is None:
            self._n += 1
            slot = self.table_slots[name] = str(self._n)
        lk = f"_LK{slot}"
        ei = f"_EI{slot}"
        fmsg = f"injected lookup failure in table {name!r}"
        self.line(f"if faults is not None and faults.trip('table', {name!r}):")
        with self.block():
            self.line(
                f"raise _FErr('extern-fault', {fmsg!r}, "
                f"site={('table:' + name)!r})"
            )
        lt = self.tmp()
        with self._observing("lat_on"):
            self.line(f"{lt} = _perf()")
        keys = []
        for node, ks in zip(
            runtime.key_exprs, self._eval_all(list(runtime.key_exprs))
        ):
            ki = self.as_int(node, ks)
            if not _ATOM.match(ki):
                t = self.tmp()
                self.line(f"{t} = {ki}")
                ki = t
            keys.append(ki)
        # Atoms only, so the tuple display may be written twice.
        kv = f"({', '.join(keys)},)" if keys else "()"
        an, aa, hit, en = self.tmp(), self.tmp(), self.tmp(), self.tmp()
        answer = f"{an}, {aa}, {hit}, {en}"
        form = runtime.declared_form()
        if form is None:
            self.line(f"{answer} = {lk}({kv})")
        else:
            # DESIGN.md §15 "Answers as declared".
            if name not in self.inline_tables:
                self.inline_tables.append(name)
            self.line(f"if _TR{slot}.as_declared:")
            with self.block():
                self.line(f"_lq{slot} += 1")
                if form[0] == "exact":
                    self.line(f"{answer} = _AN{slot}.get({kv}, _AD{slot})")
                else:
                    self._answer_chain(form[1], keys, runtime.key_widths,
                                       slot, answer)
            self.line("else:")
            with self.block():
                self.line(f"{answer} = {lk}({kv})")
        with self._observing("lat_on"):
            self.line(
                f"_obs('pipeline.latency_us.lookup', "
                f"(_perf() - {lt}) * 1e6)"
            )
        with self._observing("trace is not None"):
            self.line(
                f"trace.table({name!r}, {kv}, {an}, {hit}, "
                f"entry={ei}({en}) if {en} is not None else None, "
                f"const={en}.is_const if {en} is not None else None, "
                f"args={aa})"
            )
        self.line(f"if {hit}:")
        with self.block():
            self.line("_hits += 1")
        self.line("else:")
        with self.block():
            self.line("_misses += 1")
        self.line(f"if {an} != 'NoAction':")
        with self.block():
            with self._observing("lat_on"):
                self.line(f"{lt} = _perf()")
            # One arm per action the table can select, not per composed
            # action: see TableRuntime.selectable_actions.
            kw = "if"
            for aname, adecl in runtime.selectable_actions.items():
                self.line(f"{kw} {an} == {aname!r}:")
                with self.block():
                    self._inline_action(adecl, aa)
                kw = "elif"
                self.dispatch_arms += 1
            umsg = f"table {name!r} selected unknown action %r"
            unknown = f"raise _TErr({umsg!r} % ({an},))"
            if kw == "if":
                self.line(unknown)
            else:
                self.line("else:")
                with self.block():
                    self.line(unknown)
            with self._observing("lat_on"):
                self.line(
                    f"_obs('pipeline.latency_us.action', "
                    f"(_perf() - {lt}) * 1e6)"
                )
        return hit

    def _answer_chain(self, rows, keys, widths, slot: str, answer: str) -> None:
        """First match over the const entries' checks
        (``TableRuntime.declared_form``), else the default row.  Keys
        fit their widths, so a full mask and a bound at the edge of the
        key's range need no test."""
        kw = "if"
        for i, (tchecks, rchecks) in enumerate(rows):
            conds = []
            for pos, mask, want in tchecks:
                k = keys[pos]
                if mask == (1 << widths[pos]) - 1:
                    conds.append(f"{k} == {want}")
                else:
                    conds.append(f"({k} & {mask}) == {want}")
            for pos, lo, hi in rchecks:
                k, full = keys[pos], (1 << widths[pos]) - 1
                if lo and hi != full:
                    conds.append(f"{lo} <= {k} <= {hi}")
                elif lo:
                    conds.append(f"{k} >= {lo}")
                elif hi != full:
                    conds.append(f"{k} <= {hi}")
            if not conds:
                # Matches every key: the rows after it are unreachable.
                if kw == "if":
                    self.line(f"{answer} = _AR{slot}[{i}]")
                else:
                    self.line("else:")
                    with self.block():
                        self.line(f"{answer} = _AR{slot}[{i}]")
                return
            self.line(f"{kw} {' and '.join(conds)}:")
            with self.block():
                self.line(f"{answer} = _AR{slot}[{i}]")
            kw = "elif"
        self.line("else:")
        with self.block():
            self.line(f"{answer} = _AD{slot}")

    def _inline_action(self, adecl, args_tmp: str) -> None:
        """One action body, inlined at a table-apply dispatch arm."""
        n = len(adecl.params)
        amsg = f"action {adecl.name!r} expects {n} args, got %d"
        self.line(f"if len({args_tmp}) != {n}:")
        with self.block():
            self.line(f"raise _TErr({amsg!r} % len({args_tmp}))")
        self._push_frame(f"action {adecl.name!r}")
        for i, p in enumerate(adecl.params):
            local = self._define(p.name, False)
            self.line(f"{local} = {args_tmp}[{i}]")
        self.stmts(adecl.body.stmts)
        self._pop_frame()

    def _action_call(self, c: ast.MethodCallExpr, adecl) -> str:
        vals = self._eval_all(list(c.args))
        n = len(adecl.params)
        if len(vals) != n:
            # The invoker raises only after evaluating every argument.
            for vs in vals:
                if not _ATOM.match(vs):
                    self.line(vs)
            msg = f"action {adecl.name!r} expects {n} args, got {len(vals)}"
            self.line(f"raise _TErr({msg!r})")
            return "None"
        self._push_frame(f"action {adecl.name!r}")
        for p, vs in zip(adecl.params, vals):
            local = self._define(p.name, False)
            self.line(f"{local} = {vs}")
        self.stmts(adecl.body.stmts)
        self._pop_frame()
        return "None"

    def _builtin(self, c: ast.MethodCallExpr, name: str) -> str:
        if name != "recirculate":
            msg = f"unknown builtin function {name!r}"
            return f"_te({msg!r})"
        self.uses_recirc = True
        ent = self._find(IM_VAR)
        if ent is None:
            return self._undef(IM_VAR, "read of")
        t = self.tmp()
        self.line(f"{t} = {ent[0]}")
        self.line(f"if isinstance({t}, _IM):")
        with self.block():
            self.line(f"{t}.recirculate_requested = True")
        for a in c.args:
            vs = self.expr(a)
            if not _ATOM.match(vs):
                self.line(vs)
        return "None"

    # ------------------------------------------------------------------
    # Externs
    # ------------------------------------------------------------------
    def _trip_extern(self, extern: str, site: str, fmsg: str) -> None:
        self.line(
            f"if faults is not None and faults.trip('extern', {extern!r}):"
        )
        with self.block():
            self.line(f"raise _FErr('extern-fault', {fmsg!r}, site={site!r})")

    def _generic_extern(self, c, extern: str, method: str, r: str) -> None:
        """The interpreter's dynamic-dispatch fallback: evaluate the
        base, then the arguments, then ``obj.call`` or the missing-
        instance error."""
        b = self.expr(c.target.base)
        o = self.tmp()
        self.line(f"{o} = {b}")
        vals = self._eval_all(list(c.args))
        a = self.tmp()
        self.line(f"{a} = [{', '.join(vals)}]")
        self.line(f"if hasattr({o}, 'call'):")
        with self.block():
            self.line(f"{r} = {o}.call({method!r}, {a})")
        self.line("else:")
        with self.block():
            msg = f"extern instance {extern!r} missing at runtime"
            self.line(f"raise _TErr({msg!r})")

    def _extern(self, c: ast.MethodCallExpr, extern: str, method: str) -> str:
        target = c.target
        assert isinstance(target, ast.MemberExpr)
        site = f"extern:{extern}"
        fmsg = f"injected fault in extern {extern!r}.{method}"
        if extern == "extractor":
            if self.in_parser:
                return self._extract(c, site, fmsg)
            self._trip_extern("extractor", site, fmsg)
            self.line(
                "raise _TErr('extractor.extract outside a native "
                "parser context')"
            )
            return "None"
        if extern == "emitter":
            self._trip_extern(extern, site, fmsg)
            self.line(
                "raise _TErr('emitter.emit outside a native "
                "deparser context')"
            )
            return "None"
        if extern == "register" and method == "read" and len(c.args) == 2:
            self._trip_extern(extern, site, fmsg)
            b = self.expr(target.base)
            o = self.tmp()
            self.line(f"{o} = {b}")
            r = self.tmp()
            self.line(f"if isinstance({o}, _Reg):")
            with self.block():
                idx = self.expr(c.args[1])
                idx_i = self.as_int(c.args[1], idx)
                v = self.tmp()
                self.line(f"{v} = {o}.cells.get({idx_i} % {o}.size, 0)")
                self.store(c.args[0], v, True)
                self.line(f"{r} = None")
            self.line("else:")
            with self.block():
                self._generic_extern(c, extern, method, r)
            return r
        if (
            extern == "im_t"
            and method in IM_FAST
            and len(c.args) <= 1
            and (method != "set_out_port" or len(c.args) == 1)
        ):
            self._trip_extern(extern, site, fmsg)
            b = self.expr(target.base)
            o = self.tmp()
            self.line(f"{o} = {b}")
            r = self.tmp()
            self.line(f"if {o}.__class__ is _IM:")
            with self.block():
                if method == "set_out_port":
                    a0 = self.expr(c.args[0])
                    p = self.tmp()
                    self.line(f"{p} = {self.as_int(c.args[0], a0)}")
                    self.line(f"{o}.out_port = {p}")
                    self.line(f"if {p} == 255:")
                    with self.block():
                        self.line(f"{o}.dropped = True")
                    self.line(f"{r} = None")
                elif method == "drop":
                    self.line(f"{o}.dropped = True")
                    self.line(f"{r} = None")
                else:
                    attr = (
                        "out_port" if method == "get_out_port" else "in_port"
                    )
                    self.line(f"{r} = {o}.{attr}")
            self.line("else:")
            with self.block():
                self._generic_extern(c, extern, method, r)
            return r
        self._trip_extern(extern, site, fmsg)
        r = self.tmp()
        self._generic_extern(c, extern, method, r)
        return r

    def _extract(self, c: ast.MethodCallExpr, site: str, fmsg: str) -> str:
        self._trip_extern("extractor", site, fmsg)
        lvalue = c.args[1]
        htype = getattr(lvalue, "type", None)
        if not isinstance(htype, ast.HeaderType):
            g = self.expr(lvalue)
            if not _ATOM.match(g):
                self.line(g)
            self.line("raise _TErr('extract target is not a header')")
            return "None"
        size = htype.byte_width
        plan = unpack_plan(htype)
        name = expr_name(lvalue)
        g = self.expr(lvalue)
        h = self.tmp()
        self.line(f"{h} = {g}")
        self.line(f"if {h}.__class__ is not _HV:")
        with self.block():
            self.line("raise _TErr('extract target is not a header')")
        e = self.tmp()
        self.line(f"{e} = _cursor + {size}")
        self.line(f"if {e} > _dl:")
        with self.block():
            self.line("raise _PErr('truncated-extract')")
        acc = self.tmp()
        self.line(f"{acc} = _ifb(data[_cursor:{e}], 'big')")
        f = self.tmp()
        self.line(f"{f} = {h}.fields")
        for fname, shift, fmask in plan:
            if shift:
                self.line(f"{f}[{fname!r}] = ({acc} >> {shift}) & {fmask}")
            else:
                self.line(f"{f}[{fname!r}] = {acc} & {fmask}")
        self.line(f"{h}.valid = True")
        self.line("if trace is not None:")
        with self.block():
            self.line(f"trace.extract({name!r}, {size}, offset=_cursor)")
        self.line(f"_cursor = {e}")
        return "None"

    # ------------------------------------------------------------------
    # Native parser (monolithic mode)
    # ------------------------------------------------------------------
    def _default_init(self, name: str, t: ast.Type) -> bool:
        """Declare ``name`` with its type's fresh value; True when that
        took only literals (no factory call)."""
        if isinstance(t, ast.BitType):
            local = self._define(name, True)
            self.line(f"{local} = 0")
        elif isinstance(t, ast.BoolType):
            local = self._define(name, False)
            self.line(f"{local} = False")
        elif isinstance(t, ast.EnumType):
            local = self._define(name, False)
            self.line(f"{local} = {(t.members[0] if t.members else '')!r}")
        elif name in self.flat:
            layout = self.flat[name]
            cells = self._define_flat(name, layout)
            fields = [c for c, w in zip(cells, layout.widths) if w is not None]
            flags = [c for c, w in zip(cells, layout.widths) if w is None]
            if fields:
                self.line(f"{' = '.join(fields)} = 0")
            if flags:
                self.line(f"{' = '.join(flags)} = False")
        else:
            factory = self.pooled(factory_for(t), "_K")
            local = self._define(name, False)
            self.line(f"{local} = {factory}()")
            return False
        return True

    def _parser_emit(self, parser) -> None:
        """State machine as an integer-dispatched loop: states index
        0.., ``accept`` is -1, ``reject`` -2, unknown targets get raise
        arms below -2."""
        self._push_frame(f"parser {parser.name!r}")
        self.in_parser = True
        for local in parser.locals:
            if not isinstance(local, ast.VarLocal):
                continue
            if local.init is not None:
                vs = self.expr(local.init)
                loc = self._define(local.name, self.is_int(local.init))
                self.line(f"{loc} = {vs}")
            else:
                self._default_init(local.name, local.var_type)
        index = {st.name: i for i, st in enumerate(parser.states)}
        unknowns: Dict[str, int] = {}

        def target_index(name: str) -> int:
            got = index.get(name)
            if got is not None:
                return got
            if name == "accept":
                return -1
            if name == "reject":
                return -2
            got = unknowns.get(name)
            if got is None:
                got = -3 - len(unknowns)
                unknowns[name] = got
            return got

        self.line(f"_st = {target_index('start')}")
        self.line("for _ in range(parser_budget):")
        with self.block():
            self.line("if _st == -1:")
            with self.block():
                self.line("break")
            self.line("elif _st == -2:")
            with self.block():
                self.line("raise _PErr('parser-reject')")
            for i, st in enumerate(parser.states):
                self.line(f"elif _st == {i}:")
                with self.block():
                    self.line("if trace is not None:")
                    with self.block():
                        self.line(f"trace.parser_state({st.name!r})")
                    self.stmts(st.stmts)
                    self._transition(st, target_index)
            for uname, code in sorted(unknowns.items(), key=lambda kv: -kv[1]):
                self.line(f"elif _st == {code}:")
                with self.block():
                    msg = f"parser reached unknown state {uname!r}"
                    self.line(f"raise _TErr({msg!r})")
        self.line("else:")
        with self.block():
            self.line(
                "raise _FErr('parse-depth', 'native parser exceeded its "
                "%d-state step budget' % parser_budget)"
            )
        self.in_parser = False
        self._pop_frame()

    def _transition(self, st, target_index) -> None:
        if st.direct_next is not None:
            self.line(f"_st = {target_index(st.direct_next)}")
            return
        if not st.select_exprs:
            self.line("_st = -2")
            return
        subs = []
        for e in st.select_exprs:
            s = self.expr(e)
            if not _ATOM.match(s):
                t = self.tmp()
                self.line(f"{t} = {s}")
                s = t
            subs.append((e, s))
        first = True
        for keysets, target in st.select_cases:
            conds = []
            for ks, (snode, sname) in zip(keysets, subs):
                if isinstance(ks, ast.DefaultExpr):
                    continue
                si = self.as_int(snode, sname)
                if isinstance(ks, ast.MaskExpr):
                    vs = self.expr(ks.value)
                    if not _ATOM.match(vs):
                        t = self.tmp()
                        self.line(f"{t} = {vs}")
                        vs = t
                    vi = self.as_int(ks.value, vs)
                    ms = self.expr(ks.mask)
                    mi = self.as_int(ks.mask, ms)
                    if not _ATOM.match(mi):
                        t = self.tmp()
                        self.line(f"{t} = {mi}")
                        mi = t
                    conds.append(f"(({si} & {mi}) == ({vi} & {mi}))")
                elif isinstance(ks, ast.RangeExpr):
                    los = self.expr(ks.lo)
                    if not _ATOM.match(los):
                        t = self.tmp()
                        self.line(f"{t} = {los}")
                        los = t
                    his = self.expr(ks.hi)
                    if not _ATOM.match(his):
                        t = self.tmp()
                        self.line(f"{t} = {his}")
                        his = t
                    loi = self.as_int(ks.lo, los)
                    hii = self.as_int(ks.hi, his)
                    conds.append(f"({loi} <= {si} <= {hii})")
                else:
                    vs = self.expr(ks)
                    conds.append(f"({vs} == {sname})")
            cond = " and ".join(conds) if conds else "True"
            self.line(f"{'if' if first else 'elif'} {cond}:")
            with self.block():
                self.line(f"_st = {target_index(target)}")
            first = False
        self.line("else:")
        with self.block():
            self.line("_st = -2")

    # ------------------------------------------------------------------
    # Whole-function emission
    # ------------------------------------------------------------------
    def _root_inits(self) -> None:
        """Per-packet locals for IM/pkt/root variables, in the same order
        ``compiled._fresh_ctx`` evaluates them: scalars and factories in
        declaration order, register externs next, mc wiring last."""
        im = self._define(IM_VAR, False)
        self.line(f"{im} = _IM(in_port=in_port, pkt_len=_dl)")
        pk = self._define(PKT_VAR, False)
        # Built only if the body turns out to read it (_pkt_object).
        self._pkt_init = (self.reserve(), f"{pk} = _PktObj(packet)")
        self._pkt_read = False
        mc_wires = []
        reg_inits = []
        for name, vtype in self.composed.variables.items():
            if self.bs_scalar and name == BS_INSTANCE:
                # Loaded by the prologue, not initialised here; a
                # header's validity cell comes before its fields.
                self._define_flat(
                    name, self.bs_layout, ("_bsvld",) + self.bs_locals
                )
                continue
            if isinstance(vtype, ast.ExternType):
                if vtype.name == "register":
                    local = self._define(name, False)
                    reg_inits.append((local, name))
                elif vtype.name == "mc_engine":
                    factory = self.pooled(factory_for(vtype), "_K")
                    local = self._define(name, False)
                    self.line(f"{local} = {factory}()")
                    mc_wires.append(local)
                else:
                    local = self._define(name, False)
                    self.line(f"{local} = None")
                continue
            self._default_init(name, vtype)
        for local, name in reg_inits:
            self.line(f"{local} = _pers.setdefault({name!r}, _Reg())")
        for local in mc_wires:
            self.line(f"{local}.im = {im}")

    def _pkt_object(self) -> None:
        """After a body: build the ``pkt`` extern object only if the
        body reads it."""
        if self._pkt_read:
            self.fill(*self._pkt_init)

    def _counters(self, init) -> None:
        """After the lane loop: zero the ``_lq`` counters of its inline
        answers at ``init`` (a reserved line), and hand them to the
        executor beside ``_hits``/``_misses``."""
        if self.inline_tables:
            names = [f"_lq{self.table_slots[t]}" for t in self.inline_tables]
            self.fill(init, " = ".join(names) + " = 0")
            self.line(f"pipe._lq_out = ({', '.join(names)},)")

    def _micro_scalar_prologue(self) -> None:
        E, S = self.bs_extract_len, self.bs_size
        names = self.bs_locals
        if E > 0:
            head = ", ".join(names[:E]) + ("," if E == 1 else "")
            self.line(f"if _dl >= {E}:")
            with self.block():
                self.line(f"_loaded = {E}")
                self.line(f"{head} = data[:{E}]")
            self.line("else:")
            with self.block():
                self.line("_loaded = _dl")
                self.line(f"{head} = data.ljust({E}, b'\\x00')")
        else:
            self.line("_loaded = 0")
        if E < S:
            chain = " = ".join(names[E:])
            self.line(f"{chain} = 0")
        self.line("_bsvld = True")
        self.line(f"{self._find(BS_LEN_VAR)[0]} = _loaded")
        self.line(f"payload = data[{E}:]")

    def _micro_object_prologue(self) -> None:
        E, S = self.bs_extract_len, self.bs_size
        bs = self._find(BS_INSTANCE)[0]
        self.namespace["_BN"] = tuple(f"b{i}" for i in range(S))
        self.line(f"_loaded = _dl if _dl < {E} else {E}")
        self.line(f"{bs}.valid = True")
        self.line(f"_bf = {bs}.fields")
        self.line("for _i in range(_loaded):")
        with self.block():
            self.line("_bf[_BN[_i]] = data[_i]")
        self.line(f"{self._find(BS_LEN_VAR)[0]} = _loaded")
        self.line(f"payload = data[{E}:]")

    def _drop(self, reason: str) -> None:
        """End the lane as a drop for ``reason`` (an expression)."""
        with self._observing("trace is not None"):
            self.line(f"trace.drop({reason})")
        self.line(f"_emit(([], {reason}, None))")
        self.line("continue")

    def _output(self, *deparse_trace: str) -> None:
        """End the lane with its one output, ``out_bytes``, traced after
        the ``deparse_trace`` lines."""
        im = self._find(IM_VAR)[0]
        with self._observing("lat_on"):
            self.line("_obs('pipeline.latency_us.deparse', (_perf() - _pt) * 1e6)")
        with self._observing("trace is not None"):
            for text in deparse_trace:
                self.line(text)
            self.line(
                f"trace.output({im}.out_port, len(out_bytes), "
                f"{im}.mcast_grp, {im}.recirculate_requested)"
            )
        self.line(
            f"_emit(([_POut(_Pkt(out_bytes), {im}.out_port, {im}.mcast_grp, "
            f"recirculate={im}.recirculate_requested)], None, None))"
        )

    def _micro_per_packet(self) -> None:
        E, S = self.bs_extract_len, self.bs_size
        with self._observing("lat_on"):
            self.line("_pt = _perf()")
        if self.bs_scalar:
            self._micro_scalar_prologue()
        else:
            self._micro_object_prologue()
        with self._observing("lat_on"):
            self.line("_obs('pipeline.latency_us.parse', (_perf() - _pt) * 1e6)")
        with self._observing("trace is not None"):
            self.line(f"trace.extract('byte_stack', _loaded, extract_length={E})")
        self.line("try:")
        with self.block():
            self.stmts(self.composed.statements)
        self.line("except (_Exit, _Return):")
        with self.block():
            self.line("pass")
        im = self._find(IM_VAR)[0]
        perr = self._find(PARSER_ERR_VAR)[0]
        self.line(f"if {perr} == 1 or {im}.dropped:")
        with self.block():
            self.line(f"_reason = 'parser-error' if {perr} == 1 else 'pipeline-drop'")
            self._drop("_reason")
        blen = self._find(BS_LEN_VAR)
        self.line(f"out_len = {blen[0] if blen[1] else 'int(%s)' % blen[0]}")
        self.line(f"if out_len > {S} or out_len < 0:")
        with self.block():
            self.line(
                "raise _FErr('bytestack-bounds', "
                f"'byte-stack length %d outside stack size {S}' % out_len)"
            )
        with self._observing("lat_on"):
            self.line("_pt = _perf()")
        if self.bs_scalar:
            tup = ", ".join(self.bs_locals)
            self.line(f"out_bytes = bytes(({tup},)[:out_len]) + payload")
        else:
            self.line("out_bytes = bytes(map(_bf.__getitem__, _BN[:out_len])) + payload")
        self._output("trace.deparse(out_len, len(payload))")

    def _mono_per_packet(self) -> None:
        self.line("_cursor = 0")
        parser = self.composed.native_parser
        if parser is not None:
            self.line("_prr = None")
            with self._observing("lat_on"):
                self.line("_pt = _perf()")
            self.line("try:")
            with self.block():
                self._parser_emit(parser)
            self.line("except _PErr as _sig:")
            with self.block():
                self.line("_prr = _sig.reason")
            self.line("finally:")
            with self.block():
                with self._observing("lat_on"):
                    self.line("_obs('pipeline.latency_us.parse', (_perf() - _pt) * 1e6)")
            self.line("if _prr is not None:")
            with self.block():
                self._drop("_prr")
        self.line("payload = data[_cursor:]")
        self.line("try:")
        with self.block():
            self.stmts(self.composed.statements)
        self.line("except (_Exit, _Return):")
        with self.block():
            self.line("pass")
        im = self._find(IM_VAR)[0]
        self.line(f"if {im}.dropped:")
        with self.block():
            self._drop("'pipeline-drop'")
        with self._observing("lat_on"):
            self.line("_pt = _perf()")
        self.line("_parts = []")
        for emit in self.composed.native_emits or ():
            htype = getattr(emit, "type", None)
            g = self.expr(emit)
            h = self.tmp()
            self.line(f"{h} = {g}")
            self.line(f"if not isinstance({h}, _HV):")
            with self.block():
                self.line("raise _TErr('native emit of a non-header value')")
            self.line(f"if {h}.valid:")
            with self.block():
                if isinstance(htype, ast.HeaderType):
                    plan = pack_plan(htype)
                    nbytes = htype.fixed_bit_width // 8
                else:
                    plan = ()
                    nbytes = 0
                f = self.tmp()
                self.line(f"{f} = {h}.fields")
                fold = "0"
                for fname, width, fmask in plan:
                    term = f"({f}[{fname!r}] & {fmask})"
                    fold = term if fold == "0" else f"(({fold} << {width}) | {term})"
                name = expr_name(emit)
                self.line(f"_pk = ({fold}).to_bytes({nbytes}, 'big')")
                with self._observing("trace is not None"):
                    self.line(f"trace.emit({name!r}, {nbytes})")
                self.line("_parts.append(_pk)")
        self.line("_parts.append(payload)")
        self.line("out_bytes = b''.join(_parts)")
        self._output()

    def _gen_run(self) -> None:
        self.line(
            "def _cg_run(pipe, datas, ports, pkts, trace, lat_on, step_limit, "
            "faults, parser_budget):"
        )
        with self.block():
            self.line("_hits = 0")
            self.line("_misses = 0")
            counters = self.reserve()
            self.line("_pers = pipe.persistent")
            self.line("_results = []")
            self.line("_emit = _results.append")
            self.line("for data, in_port, packet in zip(datas, ports, pkts):")
            with self.block():
                self.line("_dl = len(data)")
                self.line("steps = 0")
                self.line("try:")
                with self.block():
                    self._push_frame("pipeline")
                    self._root_inits()
                    if self.composed.mode == "micro":
                        self._micro_per_packet()
                    else:
                        self._mono_per_packet()
                    self._pop_frame()
                self._pkt_object()
                self.line("except Exception as _exc:")
                with self.block():
                    # The traceback points at this frame, whose f_back
                    # chain holds the whole batch: dropping it keeps the
                    # triple out of a reference cycle.
                    self.line("_emit((None, None, _exc.with_traceback(None)))")
            self.line("pipe._hits_out = _hits")
            self.line("pipe._misses_out = _misses")
            self._counters(counters)
            self.line("return _results")

    def generate(self) -> "GeneratedModule":
        self._gen_run()
        source = self.render()
        if METRICS.enabled:
            METRICS.inc("codegen.generations")
        return GeneratedModule(
            source,
            compile_cached(source, f"<codegen:{self.composed.name}>"),
            self.namespace,
            self.table_slots,
            tuple(self.inline_tables),
            not self.uses_recirc,
            self.lane_vars,
            self.dispatch_arms,
            self.nlocals,
        )


@dataclass(frozen=True)
class GeneratedModule:
    """What generation yields for one composed program: the module
    text, its code object, and everything else an executor needs that
    is a fact about the program rather than about the executor.

    ``shared`` is the namespace every instance starts from (helpers,
    ``_K…`` constants and factories, ``_BN``); ``table_slots`` maps a
    table name to the suffix of the ``_LK``/``_EI`` names its apply
    sites call, and ``inline_tables`` lists the tables whose sites also
    answer inline while the table is as declared (``_TR``/``_AN``/
    ``_AR``/``_AD``, counted in ``_lq``).  :meth:`instantiate` binds all
    of those to one executor's own :class:`TableRuntime` objects, so
    any number of ``CodegenPipeline`` / ``VectorPipeline`` instances
    run one code object and share no table state.  ``batch_supported``:
    the program cannot recirculate, so a batch of lanes needs no
    second pass through the switch.
    """

    source: str
    code: Any
    shared: Dict[str, object]
    table_slots: Dict[str, str]
    inline_tables: Tuple[str, ...]
    batch_supported: bool
    lane_vars: LaneVars
    dispatch_arms: int
    nlocals: int

    def instantiate(self, tables: Dict[str, TableRuntime]):
        """``(_cg_run, metrics)`` over ``tables``; ``metrics[i]`` is the
        lookup counter the ``_lq`` count of ``inline_tables[i]`` stands
        for."""
        ns = dict(self.shared)
        for name, slot in self.table_slots.items():
            runtime = tables[name]
            ns[f"_LK{slot}"] = runtime.lookup_full
            ns[f"_EI{slot}"] = runtime.entry_index
        metrics = []
        for name in self.inline_tables:
            slot, runtime = self.table_slots[name], tables[name]
            answers = runtime.declared_answers()
            ns[f"_TR{slot}"] = runtime
            ns[f"_AN{slot}"] = answers.by_key
            ns[f"_AR{slot}"] = answers.rows
            ns[f"_AD{slot}"] = answers.default
            metrics.append(answers.metric)
        exec(self.code, ns)
        return ns["_cg_run"], tuple(metrics)


def generated_module(
    composed: ComposedPipeline, tables: Dict[str, TableRuntime]
) -> GeneratedModule:
    """The generated module of ``composed``, made once per program
    object however many executors are built from it (``tables``: any
    executor's, see :class:`SourceGen`)."""
    module = composed.derived.get("generated_module")
    if module is None:
        module = SourceGen(composed, tables).generate()
        composed.derived["generated_module"] = module
    elif METRICS.enabled:
        METRICS.inc("codegen.build_cache_hits")
    return module


# ---------------------------------------------------------------------------
# Build cache
#
# ``compile()`` is about two thirds of a generation.  A program object
# pays it once: its modules are remembered with it, and a pool derives
# them before it forks (``backends.derive_modules``).  This dict serves a
# second composition of the same sources in one process: the text is
# deterministic per program, so one code object serves every instance.
# ---------------------------------------------------------------------------

_CODE_CACHE: Dict[Tuple[str, str], Any] = {}


def compile_cached(source: str, filename: str):
    key = (filename, source)
    code = _CODE_CACHE.get(key)
    if METRICS.enabled:
        METRICS.inc(f"codegen.build_cache_{'misses' if code is None else 'hits'}")
    if code is None:
        code = _CODE_CACHE[key] = compile(source, filename, "exec")
    return code


class CodegenPipeline:
    """Composed pipeline translated to generated Python source.

    Observationally identical to the interpreter: same verdicts, drop
    reasons, traces, fault-trip order, step counting, and error strings.
    ``source`` holds the generated module text for debugging.  Its one
    function runs a list of lanes: ``process`` hands it one packet,
    ``process_soa`` a batch; ``batch_supported`` is False only for a
    program that can recirculate.
    """

    backend = "codegen"

    def __init__(
        self,
        composed: ComposedPipeline,
        use_table_index: bool = True,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.composed = composed
        self.tables = table_runtimes(composed, use_table_index)
        self.persistent: Dict[str, RegisterState] = {}
        self.last_drop_reason: Optional[str] = None
        self._lat_tick = 0
        self.step_limit = DEFAULT_STEP_BUDGET
        self.faults: Optional[FaultPlan] = None
        self.guards = ResourceGuards()
        self._hits_out = 0
        self._misses_out = 0
        self._lq_out: Tuple[int, ...] = ()
        # Metric family follows the registered backend name so subclasses
        # (the vector backend) report under their own keys even on paths
        # inherited from here — the CLI/engine summaries read
        # ``{exec_backend}.table_hits`` etc.
        self._m_packets = f"{self.backend}.packets"
        self._m_hits = f"{self.backend}.table_hits"
        self._m_misses = f"{self.backend}.table_misses"
        module = generated_module(composed, self.tables)
        self.source = module.source
        self._run, self._lq_metrics = module.instantiate(self.tables)
        self.batch_supported = module.batch_supported
        #: Which struct/header variables are flattened, and why the rest
        #: are not (repro.targets.lanes).
        self.lane_vars = module.lane_vars
        self.configure_faults(guards=guards, faults=faults)
        #: Action arms inlined under table applies; linear in tables
        #: (TableRuntime.selectable_actions).
        self.dispatch_arms = module.dispatch_arms
        if METRICS.enabled:
            METRICS.inc("codegen.builds")
            METRICS.set_gauge("codegen.locals", module.nlocals)
            METRICS.set_gauge("codegen.source_lines", self.source.count("\n") + 1)
            METRICS.set_gauge("codegen.dispatch_arms", module.dispatch_arms)

    def configure_faults(
        self,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if guards is not None:
            self.guards = guards
        self.step_limit = self.guards.interp_step_budget
        self.faults = faults

    def process(self, packet: Packet, in_port: int = 0, trace=None) -> List[PacketOut]:
        lat_on = False
        if METRICS.enabled:
            METRICS.inc(self._m_packets)
            tick = self._lat_tick
            self._lat_tick = tick + 1
            lat_on = tick % LATENCY_SAMPLE_EVERY == 0
        ((outputs, reason, exc),) = self._lanes(
            (packet.tobytes(),), (in_port,), (packet,), trace, lat_on
        )
        self.last_drop_reason = reason
        if exc is not None:
            try:
                raise exc
            finally:
                # The raise gives exc a traceback through this frame;
                # a local still holding exc would close that cycle.
                exc = None
        return outputs

    def _lanes(self, datas, ports, pkts, trace, lat_on):
        """Run the generated function over the lanes, then count the
        run's table hits and misses, and the lookups its sites answered
        inline under the names ``lookup_full`` would have counted them."""
        lanes = self._run(
            self, datas, ports, pkts, trace, lat_on, self.step_limit,
            self.faults, self.guards.parser_step_budget,
        )
        if METRICS.enabled:
            if self._hits_out:
                METRICS.inc(self._m_hits, self._hits_out)
            if self._misses_out:
                METRICS.inc(self._m_misses, self._misses_out)
            for metric, count in zip(self._lq_metrics, self._lq_out):
                if count:
                    METRICS.inc(metric, count)
        return lanes

    def process_traced(self, packet: Packet, in_port: int = 0):
        trace = PacketTrace()
        outputs = self.process(packet, in_port, trace=trace)
        return outputs, trace

    def process_soa(self, datas, ports, pkts):
        """Batch path: returns one ``(outputs, reason, exc)`` triple per
        lane. ``outputs`` is None when the lane raised, ``reason`` is
        the drop reason when the lane dropped with no outputs.  No lane
        is traced or latency-sampled."""
        if not self.batch_supported:
            raise TargetError("batch execution is not supported for this pipeline")
        if METRICS.enabled:
            n = len(datas)
            METRICS.inc(self._m_packets, n)
            self._lat_tick += n
        self.last_drop_reason = None
        return self._lanes(datas, ports, pkts, None, False)
