"""AST node definitions for the µP4/P4₁₆ subset.

The AST doubles as the µP4-IR: the type checker annotates nodes in place
(``.type`` on expressions, resolved declarations on names) and the midend
transforms copies of these nodes.  All nodes carry a source location for
diagnostics.

Type nodes (:class:`BitType` etc.) are also used as the *semantic* types
computed during checking, so a single representation flows through the
whole compiler, in the spirit of p4c's unified IR.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.frontend.source import UNKNOWN_LOC, SourceLocation


@dataclass
class Node:
    """Base AST node."""

    loc: SourceLocation = field(default=UNKNOWN_LOC, repr=False, compare=False)

    def clone(self) -> "Node":
        """Copy this subtree; midend passes transform clones, never originals.

        Statement, expression and declaration nodes are copied; the
        *values* they are annotated with — checked :class:`Type` objects
        and source locations — are immutable and shared (see
        ``Type.__deepcopy__``).  One ``deepcopy`` memo spans the call, so
        aliased nodes (``PathExpr.decl``, ``call.resolved``) are
        re-pointed into the clone.
        """
        return _copy.deepcopy(self)


# ======================================================================
# Types
# ======================================================================


@dataclass
class Type(Node):
    """Base class for type nodes.

    A type is a *value*: immutable once the parser or checker has built
    it, together with everything reachable only through it (a struct's
    field list, an extern's method signatures).  Passes that need a
    different type construct a new one; :meth:`Node.clone` therefore
    shares types by reference instead of copying the type graph an
    expression's ``.type`` annotation drags along.
    """

    def __deepcopy__(self, memo: dict) -> "Type":
        return self


@dataclass
class BitType(Type):
    """``bit<W>``."""

    width: int = 0

    def __str__(self) -> str:
        return f"bit<{self.width}>"


@dataclass
class VarBitType(Type):
    """``varbit<W>`` — at most W bits, multiple of 8 at runtime."""

    max_width: int = 0

    def __str__(self) -> str:
        return f"varbit<{self.max_width}>"


@dataclass
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass
class InfIntType(Type):
    """Type of an unsized integer literal before width inference."""

    def __str__(self) -> str:
        return "int"


@dataclass
class TypeName(Type):
    """A reference to a named type, resolved by the checker."""

    name: str = ""
    args: List[Type] = field(default_factory=list)

    def __str__(self) -> str:
        if self.args:
            return f"{self.name}<{', '.join(map(str, self.args))}>"
        return self.name


@dataclass
class HeaderType(Type):
    """Declared ``header`` type (fields are bit<N> or one trailing varbit)."""

    name: str = ""
    fields: List[Tuple[str, Type]] = field(default_factory=list)

    def __str__(self) -> str:
        return self.name

    def field_type(self, fname: str) -> Optional[Type]:
        for n, t in self.fields:
            if n == fname:
                return t
        return None

    @property
    def fixed_bit_width(self) -> int:
        """Total width of the fixed-size fields, in bits."""
        return sum(t.width for _, t in self.fields if isinstance(t, BitType))

    @property
    def byte_width(self) -> int:
        """Fixed width in bytes (headers are byte-aligned)."""
        return self.fixed_bit_width // 8


@dataclass
class StructType(Type):
    """Declared ``struct`` type."""

    name: str = ""
    fields: List[Tuple[str, Type]] = field(default_factory=list)

    def __str__(self) -> str:
        return self.name

    def field_type(self, fname: str) -> Optional[Type]:
        for n, t in self.fields:
            if n == fname:
                return t
        return None


@dataclass
class HeaderStackType(Type):
    """``H[n]`` header stack."""

    element: Type = field(default_factory=Type)
    size: int = 0

    def __str__(self) -> str:
        return f"{self.element}[{self.size}]"


@dataclass
class EnumType(Type):
    """Declared ``enum``."""

    name: str = ""
    members: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        return self.name


@dataclass
class ExternType(Type):
    """A µPA logical extern (pkt, extractor, emitter, im_t, bufs, ...)."""

    name: str = ""
    # method name -> overload list; populated by repro.frontend.builtins.
    methods: Dict[str, List["MethodSignature"]] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.name


@dataclass
class MethodSignature(Node):
    """Signature of an extern method or action/program apply."""

    name: str = ""
    params: List["Param"] = field(default_factory=list)
    return_type: Type = field(default_factory=VoidType)
    type_params: List[str] = field(default_factory=list)


# ======================================================================
# Expressions
# ======================================================================


@dataclass
class Expr(Node):
    """Base expression; ``type`` is annotated by the checker."""

    type: Optional[Type] = field(default=None, repr=False, compare=False)


@dataclass
class IntLit(Expr):
    """Integer literal, optionally width-prefixed (``16w0x800``)."""

    value: int = 0
    width: Optional[int] = None


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class PathExpr(Expr):
    """A bare name; resolution recorded in ``decl`` by the checker."""

    name: str = ""
    decl: Optional[object] = field(default=None, repr=False, compare=False)


@dataclass
class MemberExpr(Expr):
    """``expr.member`` — field access, enum member, or method selection."""

    base: Expr = field(default_factory=Expr)
    member: str = ""


@dataclass
class IndexExpr(Expr):
    """``stack[i]`` header-stack indexing."""

    base: Expr = field(default_factory=Expr)
    index: Expr = field(default_factory=Expr)


@dataclass
class SliceExpr(Expr):
    """``expr[hi:lo]`` bit slice."""

    base: Expr = field(default_factory=Expr)
    hi: int = 0
    lo: int = 0


@dataclass
class BinaryExpr(Expr):
    """Binary operator; ``op`` is the token text (``+``, ``==``, ``++``...)."""

    op: str = ""
    left: Expr = field(default_factory=Expr)
    right: Expr = field(default_factory=Expr)


@dataclass
class UnaryExpr(Expr):
    """Unary ``!``, ``~`` or ``-``."""

    op: str = ""
    operand: Expr = field(default_factory=Expr)


@dataclass
class CastExpr(Expr):
    """``(bit<W>) expr``."""

    target: Type = field(default_factory=Type)
    operand: Expr = field(default_factory=Expr)


@dataclass
class MethodCallExpr(Expr):
    """``target(args)`` — extern method, action, table.apply, instance.apply."""

    target: Expr = field(default_factory=Expr)
    type_args: List[Type] = field(default_factory=list)
    args: List[Expr] = field(default_factory=list)


@dataclass
class MaskExpr(Expr):
    """``value &&& mask`` ternary keyset."""

    value: Expr = field(default_factory=Expr)
    mask: Expr = field(default_factory=Expr)


@dataclass
class RangeExpr(Expr):
    """``lo .. hi`` range keyset."""

    lo: Expr = field(default_factory=Expr)
    hi: Expr = field(default_factory=Expr)


@dataclass
class DefaultExpr(Expr):
    """``default`` / ``_`` keyset (matches anything)."""


@dataclass
class TupleExpr(Expr):
    """Parenthesised keyset tuple in select/entries."""

    items: List[Expr] = field(default_factory=list)


# ======================================================================
# Statements
# ======================================================================


@dataclass
class Stmt(Node):
    """Base statement."""


@dataclass
class BlockStmt(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDeclStmt(Stmt):
    """Local variable declaration, optionally initialised."""

    var_type: Type = field(default_factory=Type)
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class AssignStmt(Stmt):
    lhs: Expr = field(default_factory=Expr)
    rhs: Expr = field(default_factory=Expr)


@dataclass
class MethodCallStmt(Stmt):
    call: MethodCallExpr = field(default_factory=MethodCallExpr)


@dataclass
class IfStmt(Stmt):
    cond: Expr = field(default_factory=Expr)
    then_body: Stmt = field(default_factory=BlockStmt)
    else_body: Optional[Stmt] = None


@dataclass
class SwitchCase(Node):
    """One ``keyset : body`` arm of a switch statement."""

    keysets: List[Expr] = field(default_factory=list)
    body: Optional[Stmt] = None  # None = fallthrough to next case


@dataclass
class SwitchStmt(Stmt):
    """``switch (expr) { ... }`` over an expression (µP4 style, Fig. 8)."""

    subject: Expr = field(default_factory=Expr)
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    pass


@dataclass
class ExitStmt(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


# ======================================================================
# Declarations
# ======================================================================


@dataclass
class Param(Node):
    """Runtime parameter with direction: in / out / inout / none."""

    direction: str = ""  # "", "in", "out", "inout"
    param_type: Type = field(default_factory=Type)
    name: str = ""


@dataclass
class Decl(Node):
    """Base declaration."""

    name: str = ""


@dataclass
class HeaderDecl(Decl):
    fields: List[Tuple[str, Type]] = field(default_factory=list)


@dataclass
class StructDecl(Decl):
    fields: List[Tuple[str, Type]] = field(default_factory=list)


@dataclass
class EnumDecl(Decl):
    members: List[str] = field(default_factory=list)


@dataclass
class TypedefDecl(Decl):
    aliased: Type = field(default_factory=Type)


@dataclass
class ConstDecl(Decl):
    const_type: Type = field(default_factory=Type)
    value: Expr = field(default_factory=Expr)


@dataclass
class InstanceDecl(Decl):
    """Instantiation inside a control: ``ipv4() ipv4_i;``."""

    target: str = ""  # program / extern type being instantiated
    type_args: List[Type] = field(default_factory=list)
    args: List[Expr] = field(default_factory=list)


@dataclass
class ActionDecl(Decl):
    params: List[Param] = field(default_factory=list)
    body: BlockStmt = field(default_factory=BlockStmt)


@dataclass
class KeyElement(Node):
    expr: Expr = field(default_factory=Expr)
    match_kind: str = "exact"


@dataclass
class TableEntry(Node):
    keysets: List[Expr] = field(default_factory=list)
    action_name: str = ""
    action_args: List[Expr] = field(default_factory=list)


@dataclass
class TableDecl(Decl):
    keys: List[KeyElement] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)
    default_action: Optional[str] = None
    default_action_args: List[Expr] = field(default_factory=list)
    const_entries: List[TableEntry] = field(default_factory=list)
    size: Optional[int] = None


@dataclass
class ParserState(Node):
    name: str = ""
    stmts: List[Stmt] = field(default_factory=list)
    # Transition: either ("direct", state_name) or ("select", exprs, cases)
    select_exprs: List[Expr] = field(default_factory=list)
    select_cases: List[Tuple[List[Expr], str]] = field(default_factory=list)
    direct_next: Optional[str] = None


@dataclass
class ParserDecl(Decl):
    params: List[Param] = field(default_factory=list)
    locals: List[Decl] = field(default_factory=list)
    states: List[ParserState] = field(default_factory=list)

    def state(self, name: str) -> Optional[ParserState]:
        for st in self.states:
            if st.name == name:
                return st
        return None


@dataclass
class ControlDecl(Decl):
    params: List[Param] = field(default_factory=list)
    locals: List[Decl] = field(default_factory=list)
    apply_body: BlockStmt = field(default_factory=BlockStmt)


@dataclass
class ModuleSigDecl(Decl):
    """Forward signature of a µP4 module: ``L3(pkt p, im_t im, out ...);``"""

    params: List[Param] = field(default_factory=list)


@dataclass
class ProgramDecl(Decl):
    """µP4 package: ``program X : implements Unicast<...> { P; C; D }``."""

    interface: str = ""  # Unicast / Multicast / Orchestration
    interface_args: List[Type] = field(default_factory=list)
    decls: List[Decl] = field(default_factory=list)

    def block(self, kind: type, index: int = 0) -> Optional[Decl]:
        found = [d for d in self.decls if type(d) is kind]
        return found[index] if index < len(found) else None

    @property
    def parser(self) -> Optional[ParserDecl]:
        return self.block(ParserDecl)  # type: ignore[return-value]

    @property
    def controls(self) -> List[ControlDecl]:
        return [d for d in self.decls if isinstance(d, ControlDecl)]


@dataclass
class PackageInstantiation(Decl):
    """``ModularRouter(P, C, D) main;`` — selects the top-level program."""

    package: str = ""
    args: List[str] = field(default_factory=list)


@dataclass
class VarLocal(Decl):
    """Local variable declaration among control/parser locals."""

    var_type: Type = field(default_factory=Type)
    init: Optional[Expr] = None


@dataclass
class SourceProgram(Node):
    """A whole parsed compilation unit."""

    decls: List[Decl] = field(default_factory=list)
    filename: str = "<string>"

    def find(self, name: str) -> Optional[Decl]:
        for d in self.decls:
            if getattr(d, "name", None) == name:
                return d
        return None


LValue = Union[PathExpr, MemberExpr, IndexExpr, SliceExpr]
