"""Build-time facts more than one executor reads.

The generated-source executor and its columnwise tier specialise the
same composed program; what they resolve before the first packet —
which ``im_t`` methods are plain attribute accesses, how a type's
per-packet default value is built, where a header's fields sit in its
wire image, how a header lvalue is named in trace events (as the
interpreter names it) — is written here once, so neither imports the
other's private names.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.targets.interpreter import (
    HeaderValue,
    McEngine,
    RegisterState,
    StructValue,
)

#: Fast-path ``im_t`` methods generated as direct attribute access.
IM_FAST = ("set_out_port", "get_out_port", "get_in_port", "drop")


# ======================================================================
# Default-value factories (per-packet fresh values, built once)
# ======================================================================


def header_factory(htype: ast.HeaderType) -> Callable[[], HeaderValue]:
    template = {name: 0 for name, _ in htype.fields}
    new = HeaderValue.__new__

    def make() -> HeaderValue:
        hv = new(HeaderValue)
        hv.fields = template.copy()
        hv.valid = False
        return hv

    return make


def struct_factory(stype: ast.StructType) -> Callable[[], StructValue]:
    makers = tuple((name, factory_for(ftype)) for name, ftype in stype.fields)
    new = StructValue.__new__

    def make() -> StructValue:
        sv = new(StructValue)
        sv.fields = {name: mk() for name, mk in makers}
        return sv

    return make


def factory_for(t: ast.Type) -> Callable[[], object]:
    """Mirror of :func:`repro.targets.interpreter.default_value` as a
    zero-arg factory; unsupported types raise at *call* time so the
    failure stays inside the containment boundary, like the
    interpreter's per-packet ``default_value`` raise."""
    if isinstance(t, ast.BitType):
        return lambda: 0
    if isinstance(t, ast.BoolType):
        return lambda: False
    if isinstance(t, ast.HeaderType):
        return header_factory(t)
    if isinstance(t, ast.StructType):
        return struct_factory(t)
    if isinstance(t, ast.ExternType):
        if t.name == "mc_engine":
            return McEngine
        if t.name == "register":
            return RegisterState
        return lambda: None
    if isinstance(t, ast.EnumType):
        member = t.members[0] if t.members else ""
        return lambda: member
    def unsupported() -> object:
        raise TargetError(f"cannot build a default value for {t}")

    return unsupported


# ======================================================================
# Header wire images
# ======================================================================


def pack_plan(htype: ast.HeaderType) -> Tuple[Tuple[str, int, int], ...]:
    """``(field, width, mask)`` in declaration order, for packing."""
    return tuple(
        (fname, ftype.width, (1 << ftype.width) - 1)
        for fname, ftype in htype.fields
        if isinstance(ftype, ast.BitType)
    )


def unpack_plan(htype: ast.HeaderType) -> Tuple[Tuple[str, int, int], ...]:
    """``(field, shift, mask)`` against the big-endian fixed image."""
    plan = []
    pos = htype.fixed_bit_width
    for fname, ftype in htype.fields:
        if not isinstance(ftype, ast.BitType):
            continue
        pos -= ftype.width
        plan.append((fname, pos, (1 << ftype.width) - 1))
    return tuple(plan)


def expr_name(expr: ast.Expr) -> str:
    """Dotted-path rendering of a header lvalue for trace events."""
    if isinstance(expr, ast.PathExpr):
        return expr.name
    if isinstance(expr, ast.MemberExpr):
        return f"{expr_name(expr.base)}.{expr.member}"
    if isinstance(expr, ast.IndexExpr):
        idx = expr.index.value if isinstance(expr.index, ast.IntLit) else "?"
        return f"{expr_name(expr.base)}[{idx}]"
    return type(expr).__name__
